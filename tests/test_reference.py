"""The production client against the test-only reference (reference.py): a
client that takes one event per txn and decides timeouts as deadlines must
produce the outputs of one that takes an event per reply and per timeout."""

import copy
import json

import pytest
from reference import EVENT_FIELDS, EventClient, run_reference

from eovsim.config import ExperimentConfig
from eovsim.driver import ClientNode
from eovsim.metrics import journeys_to_csv
from eovsim.simulation import run_simulation

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
    moved = {k for k in report if report[k] != ref_report[k]}
    assert moved <= set(EVENT_FIELDS)
    # the reference takes an event per reply and per timeout
    assert report["events_dispatched"] < ref_report["events_dispatched"]


def test_the_event_client_keeps_the_schedule_of_one_event_per_reply():
    # The default cell's events and digest before clients took one event per
    # txn: the reference draws every key where that schedule drew it.
    result = run_reference(ExperimentConfig.from_dict({"seed": 42}))
    assert (result.trace.events_dispatched, result.trace.dispatch_digest) == \
        (174_825, "2dc30f27a12e195d")
