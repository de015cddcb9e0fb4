"""The benchmark's per-cell checks pass on a real run and fail when one
balance, one validity flag or one journey status is altered."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

import cell
import checks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eovsim import cli  # noqa: E402

# Small and contended: hot keys give MVCC rollbacks, and a non-endorsing
# peer takes the gossip path.
HOTSPOT = {
    "duration_s": 3.0,
    "rate": {"total_tps": 120.0},
    "topology": {"peers": 3, "clients": 3, "brokers": 3, "orderers": 2,
                 "non_endorsing": 1},
    "workload": {"n_accounts": 200,
                 "access": {"kind": "hotspot", "fraction_hot": 0.05}},
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cell")
    config = out / "config.json"
    config.write_text(json.dumps(HOTSPOT))
    captured = {}
    real = cli.run_simulation

    def capturing(cfg):
        captured["result"] = real(cfg)
        return captured["result"]

    cli.run_simulation = capturing
    try:
        rc = cli.main(["run", "--config", str(config), "--seed", "3",
                       "--out", str(out), "--block-trace"])
    finally:
        cli.run_simulation = real
    assert rc == 0
    sim = captured["result"].sim
    return {
        "report": json.loads((out / "report.json").read_text()),
        "journeys": checks.read_journeys(out / "journeys.csv"),
        "blocks": checks.read_blocks(out / "blocks.jsonl"),
        "ops": cell.proposal_ops(sim),
        "states": list(cell.peer_states(sim)),
    }


def _oracle(run, blocks=None, states=None):
    return checks.check_oracle(run["report"], blocks or run["blocks"],
                               run["ops"], states or run["states"])


def _accounting(run, journeys=None, blocks=None):
    return checks.check_accounting(run["report"], journeys or run["journeys"],
                                   blocks or run["blocks"])


def _valid_writer(run) -> tuple[int, int]:
    """(block index, txn index) of a Valid deposit, which always writes."""
    for b, block in enumerate(run["blocks"][1:], start=1):
        for i, (txn_id, flag) in enumerate(zip(block["txn_ids"], block["valid"])):
            if flag == "Valid" and run["ops"][txn_id][0] == "deposit_checking":
                return b, i
    raise AssertionError("no Valid deposit in the run")


def test_checks_pass_on_a_real_run(run):
    assert run["report"]["mvcc_conflicts"] > 0
    assert run["report"]["valid_txns"] > 0
    assert len(run["states"]) == 4
    assert _accounting(run) == []
    assert _oracle(run) == []


def test_one_altered_balance_fails_the_oracle(run):
    states = copy.deepcopy(run["states"])
    peer_id, state = states[-1]
    key = "cust/7/savings"
    value, version = state[key]
    state[key] = (value + 1, version)
    errors = _oracle(run, states=states)
    assert len(errors) == 1
    assert peer_id in errors[0] and key in errors[0]


def test_one_altered_flag_fails_oracle_and_accounting(run):
    blocks = copy.deepcopy(run["blocks"])
    b, i = _valid_writer(run)
    blocks[b]["valid"][i] = "MVCCConflict"
    assert len(_oracle(run, blocks=blocks)) == len(run["states"])
    assert any("Valid flags" in e for e in _accounting(run, blocks=blocks))


def test_one_altered_journey_status_fails_accounting(run):
    journeys = copy.deepcopy(run["journeys"])
    start = run["report"]["window_start_us"]
    journey = next(j for j in journeys if j["status"] == "Committed"
                   and int(j["submit_us"]) >= start)
    journey["status"] = "InvalidCommitted"
    errors = _accounting(run, journeys=journeys)
    assert any("Committed in window" in e for e in errors)
    assert any(journey["txn_id"] in e for e in errors)


def test_smallbank_writes_follow_the_contract():
    balances = {"cust/1/checking": 50, "cust/1/savings": 20,
                "cust/2/checking": 5, "cust/2/savings": 0}
    get = balances.get
    assert checks.smallbank_writes("query", (1,), None, get) == []
    assert checks.smallbank_writes("write_check", (1,), 80, get) == [
        ("cust/1/checking", 50 - 80 - 1)]
    assert checks.smallbank_writes("write_check", (1,), 70, get) == [
        ("cust/1/checking", -20)]
    assert checks.smallbank_writes("send_payment", (2, 1), 6, get) == []
    assert checks.smallbank_writes("send_payment", (1, 2), 50, get) == [
        ("cust/1/checking", 0), ("cust/2/checking", 55)]
    assert checks.smallbank_writes("amalgamate", (1, 2), None, get) == [
        ("cust/1/checking", 0), ("cust/1/savings", 0), ("cust/2/checking", 75)]
    assert checks.smallbank_writes("deposit_checking", (9,), 1, get) == []
