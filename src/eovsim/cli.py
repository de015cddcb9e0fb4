"""Command-line experiment runner: run / sweep / report subcommands.

Exit codes: 0 on success, 1 for configuration errors, 2 for runtime errors.
A sweep checks every cell's config before any cell runs (exit 1 names the
bad cell); it runs every cell and writes cells.csv even when some cells fail
at run time, and then exits 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import presets
from .config import ConfigError, ExperimentConfig, load_json_object
from .metrics import journeys_to_csv
from .simulation import run_simulation
from .sweep import SweepSpec, extract_figure, read_cells_csv, run_sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eovsim",
        description="Discrete-event simulator of an execute-order-validate "
                    "blockchain pipeline with a fixed-rate benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--config", help="JSON config file (defaults inside)")
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--block-trace", action="store_true",
                       help="also dump one JSON line per block")

    sweep_p = sub.add_parser("sweep", help="run a parameter sweep")
    source = sweep_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", help="JSON sweep spec file")
    source.add_argument("--figure", choices=sorted(presets.FIGURES),
                        help="named figure scenario")
    sweep_p.add_argument("--config", help="base config JSON merged under the spec")
    sweep_p.add_argument("--out", default="out", help="output directory")
    sweep_p.add_argument("--seed", type=int, help="base seed (cell i gets seed+i)")
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes")

    report_p = sub.add_parser("report", help="extract plot data from a sweep")
    report_p.add_argument("--cells", required=True, help="cells.csv from sweep")
    report_p.add_argument("--figure", required=True,
                          choices=sorted(presets.FIGURES))
    report_p.add_argument("--out", default="out", help="output directory")
    return parser


def cmd_run(args) -> int:
    config = load_json_object(args.config) if args.config else {}
    seed = {} if args.seed is None else {"seed": args.seed}
    cfg = ExperimentConfig.from_dict(config, seed)
    result = run_simulation(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(result.report.to_json())
    journeys_to_csv(result.journeys, out / "journeys.csv")
    if args.block_trace:
        ledger = result.sim.all_peers()[0].ledger
        with open(out / "blocks.jsonl", "w") as fh:
            for line in ledger.trace_lines():
                fh.write(line + "\n")
    report = result.report
    latency = report.avg_latency_s
    print(f"committed {report.committed} txns, "
          f"throughput {report.throughput_tps:.1f} tps "
          f"(ordering capacity {cfg.capacity_tps or float('inf'):.1f} tps), "
          f"avg latency {'n/a' if latency is None else f'{latency:.3f}'} s")
    print(f"wrote {out / 'report.json'} and {out / 'journeys.csv'}")
    return 0


def cmd_sweep(args) -> int:
    config = load_json_object(args.config) if args.config else {}
    if args.spec:
        spec = SweepSpec.from_dict(load_json_object(args.spec))
        spec.layers.insert(0, config)  # under the spec's own base
    else:
        spec = SweepSpec.from_dict(presets.figure_sweep(args.figure))
        spec.layers.append(config)  # over the figure's pinned base
    rows = run_sweep(spec, args.out, base_seed=args.seed, workers=args.workers)
    failed = sum(1 for row in rows if row.get("error"))
    print(f"{len(rows)} cells -> {Path(args.out) / 'cells.csv'}"
          + (f" ({failed} failed)" if failed else ""))
    return 2 if failed else 0


def cmd_report(args) -> int:
    for path in extract_figure(read_cells_csv(args.cells), args.figure,
                               args.out):
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"run": cmd_run, "sweep": cmd_sweep, "report": cmd_report}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
