"""The eovsim benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory. One operation is one simulated cell: `eovsim run` of the
workload's config with the given seed, in a fresh single-threaded process
(cell.py). A run holds as many cells as fit in S seconds at the host's
usual speed (workloads.CELL_SECONDS), at least MIN_CELLS, and reports
medians over them. The first cell is checked against the Smallbank oracle
and the chain/journey accounting; every later cell must write
byte-identical outputs with the same dispatch digest, so it shares the
first cell's verdict, and a cell whose outputs differ fails. With --trace 1 one more
cell runs traced, and the per-layer metrics are printed instead of the
end-to-end ones; the names and units printed are those BENCHMARK.json
lists. The last stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import CELL_SECONDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
CELL = Path(__file__).resolve().parent / "cell.py"
MIN_CELLS = 3
CELL_TIMEOUT_S = 150.0


def run_cell(config: Path, seed: int, out: Path, traced: bool = False,
             check: bool = False) -> dict:
    """One cell in a fresh process; a crash or timeout is a failed cell."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(CELL), "--config", str(config), "--seed",
           str(seed), "--out", str(out)]
    cmd += ["--trace"] if traced else []
    cmd += ["--check"] if check else []
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=CELL_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"errors": [f"cell timed out after {CELL_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        cell = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"errors": [f"cell exited {proc.returncode}: {tail[0]}"]}
    if proc.returncode != 0:
        cell["errors"].append(f"cell exited {proc.returncode}")
    return cell


def cells_per_run(workload: str, seconds: float) -> int:
    return max(MIN_CELLS, round(seconds / CELL_SECONDS[workload]))


def end_to_end(cells: list[dict]) -> dict:
    med = statistics.median
    return {
        "wall_s": med(c["wall_s"] for c in cells),
        "setup_s": med(c["setup_s"] for c in cells),
        "sim_txns_per_s": med(c["submitted_total"] / c["loop_s"] for c in cells),
        "peak_rss_mb": med(c["peak_rss_mb"] for c in cells),
    }


def per_layer(cells: list[dict], traced: dict, checked: dict) -> dict:
    med = statistics.median
    metrics = dict(traced["layers"])
    metrics["engine.events"] = traced["events"]
    metrics["engine.events_per_txn"] = traced["events"] / traced["submitted_total"]
    metrics["engine.us_per_event"] = med(c["loop_s"] / c["events"] * 1e6
                                         for c in cells)
    metrics["mem.setup_rss_mb"] = med(c["setup_rss_mb"] for c in cells)
    metrics["mem.growth_kb_per_txn"] = med(
        (c["peak_rss_mb"] - c["setup_rss_mb"]) * 1024 / c["submitted_total"]
        for c in cells)
    metrics["trace.overhead_s"] = traced["wall_s"] - med(c["wall_s"] for c in cells)
    metrics.update(checked["sim"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eovsim" / "cli.py").is_file():
        print(f"no eovsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = out / "config.json"
    config.write_text(json.dumps(WORKLOADS[args.workload], indent=2) + "\n")

    cells = [run_cell(config, args.seed, out / f"cell{i}", check=i == 0)
             for i in range(cells_per_run(args.workload, args.seconds))]
    traced = None
    if args.trace:
        traced = run_cell(config, args.seed, out / "traced", traced=True)

    attempted = cells + ([traced] if traced else [])
    checked = cells[0]
    for cell in attempted[1:]:
        if cell["errors"]:
            continue
        if cell["digests"] != checked.get("digests"):
            cell["errors"].append("outputs differ from those of cell 0")
        else:
            cell["errors"] += checked["errors"]
    failed = [c for c in attempted if c["errors"]]
    for i, cell in enumerate(attempted):
        if "wall_s" in cell:
            print(f"cell {i}{' traced' if cell is traced else ''}: wall "
                  f"{cell['wall_s']:.3f} s, setup {cell['setup_s']:.3f} s, "
                  f"event loop {cell['loop_s']:.3f} s, peak RSS "
                  f"{cell['peak_rss_mb']:.1f} MB")
        for error in cell["errors"][:5]:
            print(f"cell {i}: {error}", file=sys.stderr)
    if "digests" in checked:
        d = checked["digests"]
        print(f"{args.workload} seed {args.seed}: report_sha256 "
              f"{d['report_sha256']} dispatch_digest {d['dispatch_digest']} "
              f"({len(attempted) - len(failed)} of {len(attempted)} cells pass)")

    # Host metrics come from every cell that ran to its end and did the same
    # work as the checked cell; failed checks are counted in "failed" and
    # make "correct" false.
    timed = [c for c in cells if c.get("digests", 0) == checked.get("digests")]
    if not timed or "sim" not in checked or (args.trace and "layers" not in traced):
        print("no cell ran to its end; no metrics", file=sys.stderr)
        return 1
    if args.trace:
        values, listed = per_layer(timed, traced, checked), "per_layer"
    else:
        values, listed = end_to_end(timed), "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[listed]}
    print(json.dumps({"correct": not failed,
                      "attempted": len(attempted), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
