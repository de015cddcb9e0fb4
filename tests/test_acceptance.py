"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line. Heavy sweep cells are shared between criteria through
module-scoped fixtures; every report they produce also feeds the global
agreement and journey-conservation checks.
"""

import json
import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor

import pytest
from reference import oracle_block

from eovsim.cli import main
from eovsim.committer import commit_block
from eovsim.config import ExperimentConfig
from eovsim.ledger import (Block, CutReason, GENESIS_PREV_HASH, Ledger,
                           ReadSet, WriteSet)
from eovsim.ordering import Envelope
from eovsim.simulation import run_simulation

SEEDS = (42, 43, 44)
N16 = {"peers": 16, "clients": 16, "brokers": 16}


def gate(num, description, cond, detail=""):
    status = "PASS" if cond else "FAIL"
    print(f"[criterion {num:>2}] {status} - {description}"
          + (f" ({detail})" if detail else ""))
    assert cond, f"criterion {num}: {description} {detail}"


def _report(overrides):
    return run_simulation(ExperimentConfig.from_dict(overrides)).report


def run_cells(cells):
    """cells: {key: overrides} -> {key: report}; also pools the reports.

    Cells are independent, deterministic runs, so they run on up to two
    worker processes; the reports come back in key order."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(min(2, os.cpu_count() or 1),
                             mp_context=spawn) as pool:
        out = dict(zip(cells, pool.map(_report, cells.values())))
    ALL_REPORTS.extend(out.items())
    return out


ALL_REPORTS: list = []


@pytest.fixture(scope="module")
def saturation_cells():
    rates = (200.0, 250.0, 300.0, 350.0, 400.0, 425.0)
    return run_cells({rate: {"topology": dict(N16), "rate": {"total_tps": rate}}
                      for rate in rates})


@pytest.fixture(scope="module")
def peer_cells():
    cells = {}
    for n in (4, 8, 16, 24):
        for seed in SEEDS:
            cells[(n, seed)] = {
                "topology": {"peers": n, "clients": n, "brokers": 16},
                "rate": {"total_tps": 400.0},
                "seed": seed,
            }
    return run_cells(cells)


@pytest.fixture(scope="module")
def orderer_cells():
    return run_cells({o: {"topology": dict(N16) | {"orderers": o},
                          "rate": {"total_tps": 300.0}}
                      for o in (4, 10)})


@pytest.fixture(scope="module")
def replication_cells():
    cells = {}
    for rf, insync in ((15, 14), (1, 1)):
        for rate in (150.0, 200.0, 250.0, 300.0):
            cells[(rf, rate)] = {
                "topology": dict(N16),
                "rate": {"total_tps": rate},
                "replication": {"replication_factor": rf,
                                "min_insync": insync},
                "latency": {"base_us": {"broker-broker": 100}},
            }
    return run_cells(cells)


@pytest.fixture(scope="module")
def broker_cells():
    cells = {}
    for k in (4, 8, 16):
        for seed in SEEDS:
            cells[(k, seed)] = {
                "topology": {"peers": 16, "clients": 16, "brokers": k},
                "rate": {"total_tps": 300.0},
                "seed": seed,
            }
    return run_cells(cells)


@pytest.fixture(scope="module")
def scenario_cells():
    return run_cells({
        "gossip": {"topology": {"peers": 4, "clients": 4, "brokers": 4,
                                "non_endorsing": 2},
                   "rate": {"total_tps": 150.0}, "duration_s": 10.0},
        "conservation": {
            "topology": {"peers": 4, "clients": 4, "brokers": 4},
            "rate": {"total_tps": 150.0}, "duration_s": 10.0,
            "workload": {"n_accounts": 100,
                         "op_mix": {"send_payment": 0.5, "amalgamate": 0.5},
                         "access": {"kind": "hotspot", "fraction_hot": 0.05,
                                    "prob_hot": 0.6}},
        },
    })


# --- criterion 1: determinism -------------------------------------------------

def test_c01_determinism_byte_identical_outputs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"duration_s": 10.0,
                                    "topology": {"peers": 8, "clients": 8,
                                                 "brokers": 8}}))
    walls = []
    for name in ("a", "b"):
        t0 = time.monotonic()
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / name)]) == 0
        walls.append(time.monotonic() - t0)
    same_report = (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()
    same_journeys = (tmp_path / "a" / "journeys.csv").read_bytes() == \
        (tmp_path / "b" / "journeys.csv").read_bytes()
    gate(1, "identical (config, seed) gives byte-identical report.json and "
            "journeys.csv in under 60 s per run",
         same_report and same_journeys and max(walls) < 60.0,
         f"walls {[f'{w:.1f}s' for w in walls]}")


# --- criterion 2: MVCC oracle equivalence --------------------------------------

def test_c02_mvcc_serial_oracle_equivalence():
    threshold = 2
    rng = random.Random(2024)
    keys = [f"k{i}" for i in range(10)]
    peers = [Ledger() for _ in range(3)]
    oracle_state: dict = {}
    prev = GENESIS_PREV_HASH
    blocks = mismatches = 0
    for height in range(1000):
        txns = []
        for i in range(rng.randint(1, 100)):
            reads = []
            for key in rng.sample(keys, rng.randint(0, 3)):
                entry = peers[0].read_state(key)
                version = entry[1] if entry else None
                if rng.random() < 0.2:
                    version = (rng.randrange(height + 1), rng.randrange(4))
                reads.append((key, version))
            writes = [(rng.choice(keys), rng.randint(-99, 99))
                      for _ in range(rng.randint(0, 2))]
            stamp = ("p0", "p1") if rng.random() > 0.05 else ("p0",)
            txns.append(Envelope(f"t{height}.{i}", stamp, ReadSet(reads),
                                 WriteSet(writes), "c"))
        block = Block(height, prev, txns, CutReason.COUNT_THRESHOLD, height)
        expected = oracle_block(oracle_state, block, threshold)
        for ledger in peers:  # each on its own chain, so each validates
            commit_block(ledger, block, threshold)
            if block.flags != expected:
                mismatches += 1
        state_now = dict(peers[0].state_items())
        if state_now != oracle_state or \
                len({p.state_digest() for p in peers}) != 1:
            mismatches += 1
        prev = peers[0].tip_hash
        blocks += 1
    gate(2, "validity flags and post-state match the serial oracle on every "
            "peer over 1000 random blocks",
         blocks == 1000 and mismatches == 0,
         f"{blocks} blocks, {mismatches} mismatches")


# --- criterion 3: ledger agreement and conservation ----------------------------

def test_c03_agreement_and_conservation(scenario_cells, saturation_cells,
                                        peer_cells, orderer_cells,
                                        replication_cells, broker_cells):
    disagreeing = [key for key, r in ALL_REPORTS if not r.all_peers_agree]
    conservation = scenario_cells["conservation"]
    expected_total = 100 * 2 * 10_000
    gossip = scenario_cells["gossip"]
    gate(3, "all peers (incl. gossiped non-endorsing) agree in every "
            "scenario; transfer-only mix conserves total balance exactly",
         not disagreeing and gossip.all_peers_agree
         and conservation.total_balance == expected_total
         and conservation.invalid_committed > 0,
         f"{len(ALL_REPORTS)} cells, balance {conservation.total_balance}, "
         f"rolled-back txns {conservation.invalid_committed}")


# --- criterion 4: block cutter --------------------------------------------------

def test_c04_block_cutter_count_fill_and_exact_timeout(commit_times):
    heavy = run_simulation(ExperimentConfig.from_dict({
        "topology": {"peers": 4, "clients": 4, "brokers": 4},
        "rate": {"total_tps": 400.0}, "duration_s": 15.0})).report
    count_cut = heavy.cut_reasons["CountThreshold"]
    count_ok = count_cut / heavy.blocks >= 0.95 and heavy.blocks > 10

    commit_times.clear()
    single = run_simulation(ExperimentConfig.from_dict({
        "topology": {"peers": 4, "clients": 1, "brokers": 4},
        "rate": {"total_tps": 10.0, "total_txns_per_client": 1},
        "duration_s": 1.0}))
    block = single.sim.endorsing[0].ledger.blocks[1]
    timeout_exact = (block.cut_reason is CutReason.TIMEOUT
                     and len(block.txns) == 1 and len(commit_times) == 1
                     and block.created_at - commit_times[0] == 2_000_000)
    gate(4, ">=95% CountThreshold blocks of exactly 100 under heavy load; a "
            "lone txn cuts at +2s exactly",
         count_ok and timeout_exact,
         f"{count_cut}/{heavy.blocks} count-cut, "
         f"timeout delta {block.created_at - commit_times[0]} us")


def test_c04b_count_blocks_carry_exactly_100():
    result = run_simulation(ExperimentConfig.from_dict({
        "topology": {"peers": 4, "clients": 4, "brokers": 4},
        "rate": {"total_tps": 400.0}, "duration_s": 10.0}))
    ledger = result.sim.endorsing[0].ledger
    sizes = {len(b.txns) for b in ledger.blocks[1:]
             if b.cut_reason is CutReason.COUNT_THRESHOLD}
    gate(4, "every CountThreshold block carries exactly the configured 100",
         sizes == {100}, f"fills {sorted(sizes)}")


# --- criterion 5: saturation curve ----------------------------------------------

def test_c05_saturation_curve(saturation_cells):
    r = saturation_cells
    pre_ok = all(r[rate].throughput_tps >= 0.95 * rate
                 for rate in (200.0, 250.0))
    post_ok = all(r[rate].throughput_tps <= 0.90 * rate
                  for rate in (400.0, 425.0))
    latency_ok = r[400.0].avg_latency_s >= 2 * r[250.0].avg_latency_s
    gate(5, "throughput within 5% of offered at <=250 tps, >=10% below at "
            ">=400 tps, latency at 400 >= 2x latency at 250",
         pre_ok and post_ok and latency_ok,
         f"tput {[round(r[x].throughput_tps, 1) for x in sorted(r)]}, "
         f"lat400/lat250 "
         f"{r[400.0].avg_latency_s / r[250.0].avg_latency_s:.2f}x")


# --- criterion 6: orderer overhead ----------------------------------------------

def test_c06_more_orderers_never_help(orderer_cells):
    t4 = orderer_cells[4].throughput_tps
    t10 = orderer_cells[10].throughput_tps
    gate(6, "throughput at O=10 <= throughput at O=4 (N=K=16, 300 tps)",
         t10 <= t4, f"O4 {t4:.1f} tps, O10 {t10:.1f} tps")


# --- criterion 7: peer scaling --------------------------------------------------

def mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs)


def test_c07_peer_scaling_monotone_and_endorse_drops(peer_cells):
    means = {n: mean(peer_cells[(n, s)].throughput_tps for s in SEEDS)
             for n in (4, 8, 16, 24)}
    monotone = all(means[b] <= means[a] * 1.03
                   for a, b in zip((4, 8, 16), (8, 16, 24)))
    drops = {n: sum(peer_cells[(n, s)].dropped_endorse for s in SEEDS)
             for n in (4, 24)}
    gate(7, "throughput non-increasing over N in {4,8,16,24} (3% tolerance, "
            "3 seeds); endorsement drops grow from N=4 to N=24",
         monotone and drops[24] > drops[4],
         f"means {dict((n, round(v, 1)) for n, v in means.items())}, "
         f"dropped_endorse N4={drops[4]} N24={drops[24]}")


# --- criterion 8: ratio r --------------------------------------------------------

def test_c08_enqueue_ratio(peer_cells, saturation_cells):
    overloaded = [peer_cells[(24, s)].r_ratio for s in SEEDS]
    calm = saturation_cells[200.0]
    gate(8, "end-of-window r > 1 in the saturated N=24 cell; r = 1 exactly "
            "after drain at 200 tps",
         all(r > 1.0 for r in overloaded)
         and calm.r_ratio_final == 1.0
         and calm.enqueue_attempts_final == calm.enqueue_successes_final
         and calm.refusals == 0,
         f"overloaded r {[round(x, 3) for x in overloaded]}, "
         f"calm final r {calm.r_ratio_final}")


# --- criterion 9: replication extremes -------------------------------------------

def test_c09_replication_extremes_negligible(replication_cells):
    gaps = {}
    for rate in (150.0, 200.0, 250.0, 300.0):
        hi = replication_cells[(15, rate)].throughput_tps
        lo = replication_cells[(1, rate)].throughput_tps
        gaps[rate] = abs(hi - lo) / max(hi, lo)
    gate(9, "max vs min replication throughput differs by <10% at every "
            "offered rate (intra-cluster latency at 10%)",
         all(g < 0.10 for g in gaps.values()),
         "gaps " + str({k: f"{v:.1%}" for k, v in gaps.items()}))


# --- criterion 10: broker scaling -------------------------------------------------

def test_c10_broker_count_does_not_move_throughput(broker_cells):
    means = {k: mean(broker_cells[(k, s)].throughput_tps for s in SEEDS)
             for k in (4, 8, 16)}
    spread = (max(means.values()) - min(means.values())) / max(means.values())
    gate(10, "throughput across K in {4,8,16} within 5% over 3 seeds",
         spread <= 0.05,
         f"means {dict((k, round(v, 1)) for k, v in means.items())}, "
         f"spread {spread:.1%}")


# --- criterion 11: journey conservation -------------------------------------------

def test_c11_journey_conservation_everywhere(scenario_cells, saturation_cells,
                                             peer_cells, orderer_cells,
                                             replication_cells, broker_cells):
    broken = []
    for key, r in ALL_REPORTS:
        total = (r.committed + r.invalid_committed + r.dropped_endorse
                 + r.dropped_broadcast + r.in_flight)
        if total != r.submitted:
            broken.append((key, r.submitted, total))
    gate(11, "submitted = committed + invalid + dropped(endorse) + "
             "dropped(broadcast) + in-flight in every cell",
         not broken and len(ALL_REPORTS) >= 30,
         f"{len(ALL_REPORTS)} cells checked")
