"""Run one eovsim cell in this fresh process and print what it measured.

    python3 bench/cell.py --config CFG --seed N --out DIR [--trace] [--check]

The cell is `eovsim run --config CFG --seed N --out DIR --block-trace`,
called through `eovsim.cli.main`. Two hooks record the host clock when the
event loop starts and ends. Nothing else is added unless --trace is given,
in which case every public eovsim function and method records
spans (see spans.py). After the outputs are written and peak RSS is read, their
digests are taken and, with --check, the cell is checked (see checks.py).
The last line on stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Per-layer metrics measured by the traced cell: seconds of self time summed
# over the listed span names, or how many times one name was called.
SELF_TIME = {
    "driver.handle_s": ["driver.ClientNode.handle"],
    "endorser.endorse_s": ["endorser.endorse"],
    "endorser.policy_s": ["endorser.policy_satisfied",
                          "endorser.Endorsement.payload_key"],
    "smallbank.execute_s": ["smallbank.execute"],
    "ordering.orderer_s": ["ordering.OrdererNode.handle",
                           "ordering.OrdererNode.service_us"],
    "ordering.broker_s": ["ordering.BrokerNode.handle",
                          "ordering.BrokerNode.service_us",
                          "ordering.BrokerNode.is_control"],
    "ordering.cutter_s": ["ordering.BlockCutter.add",
                          "ordering.BlockCutter.on_timeout"],
    "committer.validate_s": ["committer.validate_block"],
    "committer.commit_s": ["committer.commit_block"],
    "ledger.apply_s": ["ledger.Ledger.apply_write_set"],
    "ledger.append_s": ["ledger.Ledger.append_block", "ledger.hash_block"],
    "ledger.fork_s": ["ledger.Ledger.fork"],
    "smallbank.generate_s": ["smallbank.generate"],
    "simulation.build_s": ["simulation.build", "simulation.genesis_block"],
    "simulation.collect_report_s": ["simulation.collect_report"],
    "metrics.aggregate_s": ["metrics.aggregate", "metrics.percentile"],
    "metrics.journeys_csv_s": ["metrics.journeys_to_csv"],
    "cli.write_s": ["cli.cmd_run", "metrics.RunReport.to_json"],
}
CALLS = {
    "engine.sends": "engine.Engine.send",
    "endorser.policy_calls": "endorser.policy_satisfied",
    "smallbank.executes": "smallbank.execute",
    "ledger.reads": "ledger.Ledger.read_state",
}


def _tallies(engine_mod) -> dict:
    """Counts taken from call arguments: metric -> (span name, count(*args))."""
    svc, timer_fire = engine_mod._SVC_TAG, engine_mod.MessageKind.TIMER_FIRE
    log_append = engine_mod.MessageKind.LOG_APPEND
    return {
        "engine.svc_events": ("engine.Engine.schedule",
                              lambda self, target, payload, delay:
                              payload.kind is timer_fire
                              and payload.body.tag == svc),
        "ordering.log_appends": ("ordering.BrokerNode.handle",
                                 lambda self, msg: msg.kind is log_append),
        "committer.txn_validations": ("committer.validate_block",
                                      lambda block, policy, ledger:
                                      len(block.txns)),
        "ledger.writes_applied": ("ledger.Ledger.apply_write_set",
                                  lambda self, ws, at: len(ws.writes)),
    }


def layer_metrics(summary: dict, tallies: dict, counted: dict) -> dict:
    """Per-layer metrics from the span summary; counted maps a span name to
    the count its tally added up."""
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(summary.get(n, {}).get("self_s", 0.0) for n in names)
    for metric, name in CALLS.items():
        out[metric] = summary.get(name, {}).get("calls", 0)
    out["engine.self_s"] = sum(s["self_s"] for n, s in summary.items()
                               if n.startswith("engine."))
    for metric, (name, _count) in tallies.items():
        out[metric] = counted.get(name, 0)
    out["trace.spans"] = sum(s["calls"] for s in summary.values())
    return out


def proposal_ops(sim) -> dict:
    """txn id -> (op kind, accounts, amount) of every client proposal."""
    return {p.txn_id: (p.op.kind.value, p.op.accounts, p.op.amount)
            for client in sim.clients for p in client.proposals}


def peer_states(sim):
    """(peer id, committed state) for every peer, one peer at a time."""
    return ((p.id, dict(p.ledger.state_items())) for p in sim.all_peers())


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _import_eovsim():
    sys.path.insert(0, str(SRC))
    import eovsim
    if Path(eovsim.__file__).resolve().parent != (SRC / "eovsim").resolve():
        raise SystemExit(f"eovsim imported from {eovsim.__file__}, not {SRC}")
    return eovsim


def run_cell(config: str, seed: int, out: Path, traced: bool, check: bool) -> dict:
    eovsim = _import_eovsim()
    from eovsim import cli, engine

    import checks
    import spans

    tracer = None
    if traced:
        tracer = spans.Tracer()
        tallies = _tallies(engine)
        spans.install(tracer, eovsim, dict(tallies.values()))

    marks = {}
    captured = {}
    run_loop = engine.Engine.run_until_quiescent
    run_simulation = cli.run_simulation

    def timed_loop(self, *args, **kwargs):
        marks["loop_start"] = time.perf_counter()
        marks["setup_rss_mb"] = _maxrss_mb()
        try:
            return run_loop(self, *args, **kwargs)
        finally:
            marks["loop_end"] = time.perf_counter()

    def capturing(cfg):
        captured["result"] = run_simulation(cfg)
        return captured["result"]

    engine.Engine.run_until_quiescent = timed_loop
    cli.run_simulation = capturing

    argv = ["run", "--config", config, "--seed", str(seed), "--out", str(out),
            "--block-trace"]
    start = time.perf_counter()
    rc = cli.main(argv)
    end = time.perf_counter()
    peak_rss_mb = _maxrss_mb()

    cell = {"errors": []}
    if rc != 0 or "result" not in captured or "loop_end" not in marks:
        cell["errors"].append(f"eovsim run exited {rc}")
        return cell
    result = captured.pop("result")
    submitted = len(result.journeys)
    cell.update(
        wall_s=end - start,
        setup_s=marks["loop_start"] - start,
        loop_s=marks["loop_end"] - marks["loop_start"],
        peak_rss_mb=peak_rss_mb,
        setup_rss_mb=marks["setup_rss_mb"],
        submitted_total=submitted,
    )
    if tracer is not None:
        summary = tracer.summary()
        cell["layers"] = layer_metrics(summary, tallies, tracer.tallies)
        (out / "trace_summary.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True))

    report = json.loads((out / "report.json").read_text())
    cell["digests"] = {
        "report_sha256": _sha256(out / "report.json"),
        "dispatch_digest": report["dispatch_digest"],
        "journeys_sha256": _sha256(out / "journeys.csv"),
        "blocks_sha256": _sha256(out / "blocks.jsonl"),
    }
    cell["events"] = report["events_dispatched"]
    if check:
        blocks = checks.read_blocks(out / "blocks.jsonl")
        journeys = checks.read_journeys(out / "journeys.csv")
        cell["errors"] += checks.check_accounting(report, journeys, blocks)
        cell["errors"] += checks.check_oracle(report, blocks,
                                              proposal_ops(result.sim),
                                              peer_states(result.sim))
        cell["sim"] = sim_metrics(report, journeys)
    return cell


def _median_s(values_us: list[int]) -> float | None:
    """Nearest-rank median, in seconds; None for no values."""
    if not values_us:
        return None
    ordered = sorted(values_us)
    return ordered[(len(ordered) + 1) // 2 - 1] / 1e6


def sim_metrics(report: dict, journeys: list[dict]) -> dict:
    """The simulated system's own figures, from the run's written outputs."""
    start, end = report["window_start_us"], report["window_end_us"]
    endorse, order, validate = [], [], []
    for j in journeys:
        if not start <= int(j["submit_us"]) < end:
            continue
        submit, endorsed = int(j["submit_us"]), j["endorsed_us"]
        ack, commit = j["bcast_ack_us"], j["commit_us"]
        if endorsed:
            endorse.append(int(endorsed) - submit)
            if ack:
                order.append(int(ack) - int(endorsed))
                if commit:
                    validate.append(int(commit) - int(ack))
    return {
        "sim.committed_tps": report["throughput_tps"],
        "sim.latency_p50_s": report["p50_s"],
        "sim.latency_p95_s": report["p95_s"],
        "sim.endorse_p50_s": _median_s(endorse),
        "sim.order_p50_s": _median_s(order),
        "sim.validate_p50_s": _median_s(validate),
        "sim.dropped_broadcast": report["dropped_broadcast"],
        "sim.dropped_endorse": report["dropped_endorse"],
        "sim.mvcc_conflicts": report["mvcc_conflicts"],
        "sim.blocks": report["blocks"],
        "sim.r_ratio": report["r_ratio"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true",
                        help="also run the oracle and accounting checks")
    args = parser.parse_args(argv)
    try:
        cell = run_cell(args.config, args.seed, Path(args.out), args.trace,
                        args.check)
    except Exception as exc:  # reported as a failed operation, not a crash
        cell = {"errors": [f"cell raised {type(exc).__name__}: {exc}"]}
    print(json.dumps(cell, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    # Skip tearing down a heap of up to 300 MB object by object at exit.
    os._exit(main())
