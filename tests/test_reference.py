"""Production against the test-only reference (reference.py). Nodes that
handle each served message on arrival, and a leader whose followers are a
queue recursion, must produce the outputs of nodes that handle it at a
completion event and of a leader with an offset log and event-driven
followers; and a client that takes one event per txn and decides timeouts as
deadlines must produce those of one that takes an event per reply and per
timeout."""

import copy
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest
from reference import (EVENT_FIELDS, QUEUED, EventClient, Queued,
                       ReferenceFollower, run_reference)

from eovsim import simulation
from eovsim.config import ExperimentConfig
from eovsim.driver import ClientNode
from eovsim.metrics import journeys_to_csv
from eovsim.presets import figure_sweep
from eovsim.simulation import run_simulation
from eovsim.sweep import SweepSpec, _cell_config

SMALL = {"topology": {"peers": 4, "clients": 4, "orderers": 2, "brokers": 3},
         "duration_s": 2.0, "rate": {"total_tps": 200.0},
         "latency": {"jitter_fraction": 0.5}}


def cell(seed, **sections):
    """SMALL with each section's fields replaced."""
    out = copy.deepcopy(SMALL) | {"seed": seed}
    for name, fields in sections.items():
        out[name] = (out.get(name, {}) | fields
                     if isinstance(fields, dict) else fields)
    return out


# name -> (overrides, what the cell must exercise, read off the report)
EDGE_CELLS = {
    "threshold-1": (cell(11, policy={"threshold": 1}),
                    lambda r: r["committed"] > 0),
    "threshold-2": (cell(12, policy={"threshold": 2}),
                    lambda r: r["committed"] > 0),
    "threshold-3": (cell(13, policy={"threshold": 3}),
                    lambda r: r["committed"] > 0),
    "hotspot-50": (cell(14, workload={
        "n_accounts": 50, "access": {"kind": "hotspot", "fraction_hot": 0.1,
                                     "prob_hot": 0.9}},
        latency={"jitter_fraction": 0.9}),
        lambda r: r["mvcc_conflicts"] > 0),
    "endorse-timeout-first": (cell(15, timeouts={"endorse_s": 0.0035},
                                   policy={"threshold": 2}),
                              lambda r: r["dropped_endorse"] > 0),
    "broadcast-drops": (cell(16, rate={"total_tps": 400.0},
                             timeouts={"broadcast_s": 0.2}),
                        lambda r: r["dropped_broadcast"] > 0),
    "truncated-broadcast": (cell(17, drain_limit_s=0.0,
                                 rate={"total_tps": 500.0},
                                 timeouts={"broadcast_s": 0.05}),
                            lambda r: r["truncated"] and r["in_flight"] > 0
                            and r["dropped_broadcast"] > 0),
    "truncated-endorse": (cell(18, drain_limit_s=0.01,
                               rate={"total_tps": 500.0},
                               timeouts={"endorse_s": 0.004,
                                         "broadcast_s": 0.05}),
                          lambda r: r["truncated"] and r["in_flight"] > 0
                          and r["dropped_endorse"] > 0),
    "min-insync-1": (cell(19, replication={"replication_factor": 1,
                                           "min_insync": 1},
                          latency={"jitter_fraction": 0.9}),
                     lambda r: r["committed"] > 0),
    # The events run out before the limit, but deadlines lie past it: stuck
    # txns (replies that never agree, envelopes the orderer refuses) near
    # the end stay in flight, and the run counts as truncated.
    "drained-divergent": (cell(20, drain_limit_s=0.3,
                               cutter={"timeout_s": 0.05},
                               timeouts={"endorse_s": 1.0, "broadcast_s": 1.0},
                               workload={"n_accounts": 50, "access": {
                                   "kind": "hotspot", "fraction_hot": 0.1,
                                   "prob_hot": 0.9}},
                               latency={"jitter_fraction": 0.9}),
                          lambda r: r["truncated"] and r["in_flight"] > 0
                          and r["dropped_endorse"] > 0),
    "drained-refused": (cell(21, drain_limit_s=0.3,
                             cutter={"timeout_s": 0.05},
                             timeouts={"endorse_s": 1.0, "broadcast_s": 1.0},
                             rate={"total_tps": 400.0},
                             queues={"orderer_capacity": 2}),
                        lambda r: r["truncated"] and r["in_flight"] > 0
                        and r["dropped_broadcast"] > 0),
    # Jitter-free lockstep clients: replies and acks land exactly at their
    # deadlines, where they are too late.
    "deadline-ties": (cell(25, latency={"jitter_fraction": 0.0},
                           timeouts={"endorse_s": 0.005004,
                                     "broadcast_s": 0.009052}),
                      lambda r: r["dropped_endorse"] > 0
                      and r["dropped_broadcast"] > 0),
    # A reply drawn at the instant of its proposal's arrival sorts before
    # it: the lower-ranked peer is its source.
    "zero-delay": (cell(24, latency={"base_us": {"default": 0},
                                     "per_byte_ns": 0, "jitter_fraction": 0.0},
                        service_us={"endorse": 0}, policy={"threshold": 1}),
                   lambda r: r["committed"] > 0),
}
DRAINED = {"drained-divergent", "drained-refused"}


def outputs(result, tmp_path):
    """(journeys.csv bytes, blocks.jsonl text, report.json as a dict)."""
    journeys_to_csv(result.journeys, tmp_path / "journeys.csv")
    blocks = "".join(line + "\n" for line in
                     result.sim.all_peers()[0].ledger.trace_lines())
    return ((tmp_path / "journeys.csv").read_bytes(), blocks,
            json.loads(result.report.to_json()))


@pytest.mark.parametrize("name", list(EDGE_CELLS))
def test_production_client_matches_the_event_client(name, tmp_path):
    overrides, exercised = EDGE_CELLS[name]
    cfg = ExperimentConfig.from_dict(overrides)
    production = run_simulation(cfg)
    reference = run_reference(cfg)
    assert all(isinstance(c, ClientNode) for c in production.sim.clients)
    assert all(isinstance(c, EventClient) for c in reference.sim.clients)
    journeys, blocks, report = outputs(production, tmp_path)
    ref_journeys, ref_blocks, ref_report = outputs(reference, tmp_path)
    assert exercised(report)
    if name in DRAINED:  # quiet before the limit, deadlines past it
        assert not production.sim.engine._heap
    assert journeys == ref_journeys
    assert blocks == ref_blocks
    # the event client's timers fire at their deadlines, past the last
    # message production handles
    moved = {k for k in report if report[k] != ref_report[k]}
    assert moved <= {*EVENT_FIELDS, "end_time_us"}
    # the reference takes an event per reply and per timeout
    assert report["events_dispatched"] < ref_report["events_dispatched"]


def bench_workload(name, seed):
    """A benchmark workload (bench/workloads.py) at seed."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return copy.deepcopy(module.WORKLOADS[name]) | {"seed": seed}


def figure_cell(figure, index):
    """Cell index of a figure's sweep, with the seed the sweep gives it."""
    spec = SweepSpec.from_dict(figure_sweep(figure))
    return _cell_config(spec, spec.cells()[index], None, index)


# name -> config: the edge cells, the pinned cells, the held-out seed of the
# benchmark's workloads, a fig9 cell (RF 15, 300 tps) and a fig10 cell (K 4)
SERVICE_CELLS = {
    **{name: lambda o=overrides: ExperimentConfig.from_dict(o)
       for name, (overrides, _) in EDGE_CELLS.items()},
    "default": lambda: ExperimentConfig.from_dict({"seed": 42}),
    **{f"{w}-{seed}": lambda w=w, seed=seed: ExperimentConfig.from_dict(
        bench_workload(w, seed))
       for w in ("order-saturated", "validate-wide") for seed in (1, 3)},
    "fig9-rf15-300tps": lambda: figure_cell("fig9", 3),
    "fig10-k4": lambda: figure_cell("fig10", 0),
    # cut while the peers validate: a block in service at the limit
    # completes past it, and is never handled
    "served-past-limit": lambda: ExperimentConfig.from_dict(cell(
        22, drain_limit_s=0.0, rate={"total_tps": 300.0},
        service_us={"validate_per_txn": 4000})),
    # The replication lag exceeds the cut timeout: a batch is cut at its
    # deadline by a record appended before it, or by the cut timer. Copies
    # reach the followers out of offset order.
    "replication-lag": lambda: ExperimentConfig.from_dict(cell(
        26, latency={"base_us": {"broker-broker": 20_000}},
        replication={"replication_factor": 3, "min_insync": 3},
        cutter={"timeout_s": 0.004})),
    # Jitter-free: a record commits exactly at its batch's deadline, 99
    # times, and the batch is cut first.
    "deadline-commit-ties": lambda: ExperimentConfig.from_dict(cell(
        27, topology={"clients": 1}, rate={"total_tps": 100.0},
        cutter={"timeout_s": 0.02}, latency={"jitter_fraction": 0.0})),
}
# Cut by the time limit: production counts a record's copies, acks, notices
# and block on their links at its append, the reference as it sends each,
# which may lie past the limit; and the reference's last event may be a copy
# or an ack, later than the last message production handles, which sets
# end_time_us.
TRUNCATED = {"truncated-broadcast", "served-past-limit"}


@pytest.mark.parametrize("name", list(SERVICE_CELLS))
def test_production_matches_the_completion_event_reference(name, tmp_path):
    cfg = SERVICE_CELLS[name]()
    production = run_simulation(cfg)
    reference = run_reference(cfg, QUEUED)
    assert all(isinstance(p, Queued) for p in reference.sim.all_peers())
    assert not any(isinstance(p, Queued) for p in production.sim.all_peers())
    followers = [b for b in reference.sim.brokers if b.id != cfg.leader_id]
    assert all(isinstance(b, ReferenceFollower) for b in followers)
    if name == "replication-lag":  # a copy waited for the one ahead of it
        assert any(b.held for b in followers)
    journeys, blocks, report = outputs(production, tmp_path)
    ref_journeys, ref_blocks, ref_report = outputs(reference, tmp_path)
    assert journeys == ref_journeys
    assert blocks == ref_blocks
    moved = {k for k in report if report[k] != ref_report[k]}
    assert moved <= set(EVENT_FIELDS) | (
        {"per_node", "end_time_us"} if name in TRUNCATED else set())
    if name == "served-past-limit":
        assert report["truncated"] and any(
            p._queued for p in production.sim.all_peers())
    # the reference takes one more event per served message
    assert report["events_dispatched"] < ref_report["events_dispatched"]


def run_split(cfg):
    """simulation.run_simulation, with the run stopped and resumed at every
    quarter of its submission window."""
    sim = simulation.build(cfg)
    for part in (1, 2, 3):
        assert sim.engine.run_until_quiescent(
            cfg.duration_us * part // 4).truncated
    limit = cfg.duration_us + cfg.drain_limit_us
    trace = sim.engine.run_until_quiescent(limit)
    if any([client.finish_open_journeys(limit) for client in sim.clients]):
        trace = replace(trace, truncated=True)
    journeys = [j for client in sim.clients for j in client.journeys.values()]
    return simulation.RunResult(simulation.collect_report(sim, trace, journeys),
                                journeys, sim, trace)


def test_a_run_split_by_its_time_limit_matches_the_reference(tmp_path):
    # The peers validate most of the time, so blocks in service at a stop
    # complete at events in the next part.
    cfg = ExperimentConfig.from_dict(cell(
        23, rate={"total_tps": 300.0}, service_us={"validate_per_txn": 4000}))
    split = run_split(cfg)
    journeys, blocks, report = outputs(split, tmp_path)
    for reference in (run_reference(cfg, QUEUED),
                      run_reference(cfg, QUEUED, run_split)):
        ref_journeys, ref_blocks, ref_report = outputs(reference, tmp_path)
        assert journeys == ref_journeys
        assert blocks == ref_blocks
        assert {k for k in report if report[k] != ref_report[k]} <= \
            set(EVENT_FIELDS)
    whole = json.loads(run_simulation(cfg).report.to_json())
    assert report == whole | {k: report[k] for k in EVENT_FIELDS}
    # messages in service at a stop completed at events of their own
    assert report["events_dispatched"] > whole["events_dispatched"]


def test_the_event_client_keeps_the_schedule_of_one_event_per_reply():
    # The default cell's events and digest with an event per served message,
    # per reply and per follower copy and ack, under the tie rule: the
    # reference draws every key where that schedule drew it.
    result = run_reference(ExperimentConfig.from_dict({"seed": 42}))
    assert (result.trace.events_dispatched, result.trace.dispatch_digest) == \
        (204_820, "a3e5fc0d86f802d0")
