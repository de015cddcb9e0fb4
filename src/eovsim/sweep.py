"""Parameter sweeps and plot-ready figure extraction.

A sweep spec holds config layers plus axis groups. Values inside one group
advance together (paired parameters like peers/clients); the groups
themselves combine as a cross product. A cell's config is
ExperimentConfig.from_dict(*layers, cell's assignment), so an axis on
workload.op_mix must give whole mixes. Every cell's config is built and
checked before any cell runs. Cells are fully isolated runs, so they can
execute on parallel workers without changing any result; each cell's seed
is base seed + cell index and is recorded in its row.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from . import presets
from .config import ConfigError, ExperimentConfig, set_param
from .metrics import journeys_to_csv
from .simulation import run_simulation

CELL_SCALARS = ["throughput_tps", "avg_latency_s", "p50_s", "p95_s", "r_ratio",
                "r_ratio_final", "dropped_endorse", "dropped_broadcast",
                "invalid_committed", "blocks", "mean_block_fill"]


@dataclass
class SweepSpec:
    layers: list[dict]  # config layers under every cell, lowest first
    groups: list[dict]  # {"params": [...], "values": [[...], ...]}

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        base = data.get("base", {})
        axes = data.get("axes", [])
        if not isinstance(base, dict):
            raise ConfigError("sweep spec 'base' must be an object")
        if not isinstance(axes, list):
            raise ConfigError("sweep spec 'axes' must be a list")
        groups = []
        for i, axis in enumerate(axes):
            where = f"sweep spec axes[{i}]"
            if not isinstance(axis, dict):
                raise ConfigError(f"{where} must be an object")
            if "param" in axis:
                params = [axis["param"]]
                values = [[v] for v in _list_field(axis, "values", where)]
            elif "params" in axis:
                params = _list_field(axis, "params", where)
                values = _list_field(axis, "values", where)
                if not all(isinstance(row, list) for row in values):
                    raise ConfigError(f"{where} 'values' rows must be lists")
            else:
                raise ConfigError(f"{where} needs 'param' or 'params'")
            for path in params:
                if not isinstance(path, str):
                    raise ConfigError(f"{where} parameter {path!r} is not a string")
            for row in values:
                if len(row) != len(params):
                    raise ConfigError(
                        f"axis row {row!r} does not match params {params!r}")
            groups.append({"params": params, "values": values})
        spec = cls(layers=[base], groups=groups)
        paths = spec.varied_params()
        if "seed" in paths:
            raise ConfigError("sweep spec cannot vary 'seed': cell i runs base "
                              "seed + i; vary 'replica' to repeat a cell")
        for i, a in enumerate(paths):
            for b in paths[i + 1:]:
                # equal, or one is a dotted prefix of the other
                if f"{a}.".startswith(f"{b}.") or f"{b}.".startswith(f"{a}."):
                    raise ConfigError(f"sweep spec parameters {a!r} and {b!r} "
                                      "overlap")
        return spec

    def varied_params(self) -> list[str]:
        return [path for group in self.groups for path in group["params"]]

    def cells(self) -> list[dict]:
        """Flat list of {param: value} assignments, cross product of groups."""
        assignments = [{}]
        for group in self.groups:
            assignments = [assignment | dict(zip(group["params"], row))
                           for assignment in assignments
                           for row in group["values"]]
        return assignments


def _list_field(axis: dict, key: str, where: str) -> list:
    value = axis.get(key)
    if not isinstance(value, list):
        raise ConfigError(f"{where} {key!r} must be a list")
    return value


def _cell_config(spec: SweepSpec, assignment: dict, base_seed: int | None,
                 index: int) -> ExperimentConfig:
    """The cell's checked config; a bad cell raises ConfigError naming it."""
    layer: dict = {}
    for path, value in assignment.items():
        set_param(layer, path, value)
    try:
        if base_seed is None:
            base_seed = ExperimentConfig.from_dict(*spec.layers, layer).seed
        return ExperimentConfig.from_dict(*spec.layers, layer,
                                          {"seed": base_seed + index})
    except ConfigError as exc:
        raise ConfigError(f"sweep cell {index} {assignment}: {exc}") from exc


def run_cell(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Execute one sweep cell; returns its RunReport as a plain dict."""
    result = run_simulation(cfg)
    cell_dir = Path(out_dir)
    cell_dir.mkdir(parents=True, exist_ok=True)
    (cell_dir / "report.json").write_text(result.report.to_json())
    journeys_to_csv(result.journeys, cell_dir / "journeys.csv")
    report = result.report
    return {name: getattr(report, name) for name in CELL_SCALARS} | {
        "seed": report.seed,
        "offered_tps": cfg.total_tps,
    }


def _run_cell_task(args):
    index, cfg, out_dir, assignment = args
    try:
        row = run_cell(cfg, out_dir)
        row["error"] = ""
    except Exception as exc:  # a failing cell must not abort the sweep
        row = dict.fromkeys(CELL_SCALARS + ["offered_tps"], "")
        row["seed"] = cfg.seed
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["cell"] = index
    row.update(assignment)
    return row


def run_sweep(spec: SweepSpec, out_dir, base_seed: int | None = None,
              workers: int = 1) -> list[dict]:
    """Run every cell on at most `workers` processes, then write cells.csv;
    a cell that fails at run time is a row with its error. A bad cell
    config, or workers < 1, raises before any cell runs."""
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    cells = spec.cells()
    configs = [_cell_config(spec, assignment, base_seed, index)
               for index, assignment in enumerate(cells)]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(index, cfg, str(out / "cells" / f"cell_{index:03d}"), assignment)
             for index, (cfg, assignment) in enumerate(zip(configs, cells))]

    workers = min(workers, len(tasks))
    if workers > 1:  # the pool starts all its processes at the first submit
        # imported here, so a plain run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell_task, tasks))
    else:
        rows = [_run_cell_task(task) for task in tasks]

    write_cells_csv(rows, spec.varied_params(), out / "cells.csv")
    return rows


def write_cells_csv(rows: list[dict], varied: list[str], path) -> None:
    columns = (["cell"] + varied + ["seed", "offered_tps"]
               + CELL_SCALARS + ["error"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col, "")) for col in columns])


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


# -- figure extraction -------------------------------------------------------

def read_cells_csv(path) -> list[dict]:
    """A sweep's cells.csv rows; an unreadable or headerless file is refused."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if not reader.fieldnames:
                raise ConfigError(f"{path} has no header row")
            return list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _number(row: dict, col: str) -> float:
    try:
        return float(row[col])
    except ValueError:
        raise ConfigError(f"cells csv column {col!r} of cell "
                          f"{row.get('cell', '?')!r} is not a number: "
                          f"{row[col]!r}") from None


def extract_figure(cells_rows: list[dict], figure: str, out_dir) -> list[Path]:
    """Write two-column (x, y, stderr-over-seeds) series files for a figure."""
    if figure not in presets.FIGURES:
        raise ConfigError(f"unknown figure {figure!r}")
    fig = presets.FIGURES[figure]
    x_col, series_col = fig["x"], fig["series_by"]
    # Every DictReader row has the header's keys. Every column and value
    # the figure reads is checked before any file is written.
    if not cells_rows:
        raise ConfigError("cells csv has no rows")
    for col in [x_col, series_col, *fig["y"]]:
        if col is not None and col not in cells_rows[0]:
            raise ConfigError(f"cells csv is missing column {col!r}")
    series_values = sorted({row[series_col] for row in cells_rows}) \
        if series_col else [None]
    points = {(y_col, s): {} for y_col in fig["y"] for s in series_values}
    for row in cells_rows:
        if row.get("error"):
            continue
        for y_col in fig["y"]:
            if row[y_col] != "":
                series = row[series_col] if series_col else None
                points[y_col, series].setdefault(
                    _number(row, x_col), []).append(_number(row, y_col))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for (y_col, series_value), grouped in points.items():
        label = f"_{series_col.split('.')[-1]}_{series_value}" \
            if series_col else ""
        path = out / f"{figure}{label}_{y_col}.dat"
        with open(path, "w") as fh:
            fh.write(f"# {fig['description']}\n")
            fh.write(f"# x={x_col} y={y_col}\n")
            for x in sorted(grouped):
                ys = grouped[x]
                mean = sum(ys) / len(ys)
                if len(ys) > 1:
                    var = sum((y - mean) ** 2 for y in ys) / (len(ys) - 1)
                    stderr = math.sqrt(var / len(ys))
                else:
                    stderr = 0.0
                fh.write(f"{x:g} {mean:.6f} {stderr:.6f}\n")
        written.append(path)
    return written
