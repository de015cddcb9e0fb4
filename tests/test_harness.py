import concurrent.futures
import copy
import csv
import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eovsim import sweep
from eovsim.cli import main
from eovsim.config import ConfigError, ExperimentConfig
from eovsim.endorser import Endorsement
from eovsim.ledger import Block
from eovsim.metrics import journeys_to_csv
from eovsim.simulation import build, run_simulation
from eovsim.smallbank import Genesis
from eovsim.sweep import SweepSpec, extract_figure, read_cells_csv, run_sweep

SMALL = {"duration_s": 3.0, "rate": {"total_tps": 60.0},
         "topology": {"peers": 3, "clients": 3, "brokers": 3, "orderers": 2}}


def write_cfg(tmp_path, overrides, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return str(path)


def test_run_writes_report_and_journeys(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_peers_agree"] is True
    assert report["config"]["duration_s"] == 3.0
    with open(out / "journeys.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["txn_id", "client", "op", "submit_us", "endorsed_us",
                       "bcast_ack_us", "commit_us", "status"]
    # journeys.csv holds every journey; the report counts the measurement
    # window only (warm-up submissions are the difference)
    header, *data = rows
    in_window = [r for r in data
                 if report["window_start_us"] <= int(r[3]) < report["window_end_us"]]
    assert len(in_window) == report["submitted"]
    assert len(data) >= report["submitted"] > 0
    # the summary line sets throughput beside the ordering capacity, and
    # gives the average latency to the millisecond
    capacity = report["config"]["resolved"]["capacity_tps"]
    summary = capsys.readouterr().out
    assert (f"throughput {report['throughput_tps']:.1f} tps "
            f"(ordering capacity {capacity:.1f} tps), "
            f"avg latency {report['avg_latency_s']:.3f} s\n") in summary


def test_run_summary_without_a_commit_gives_no_latency(tmp_path, capsys):
    # a 1-ms endorsement timeout drops every txn before it is ordered
    cfg = write_cfg(tmp_path, SMALL | {"duration_s": 1.0,
                                       "timeouts": {"endorse_s": 0.001}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = capsys.readouterr().out
    assert "committed 0 txns, " in summary
    assert "avg latency n/a s\n" in summary


def test_run_is_deterministic_byte_for_byte(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "journeys.csv").read_bytes() == (out2 / "journeys.csv").read_bytes()


def test_outputs_identical_across_processes_and_hash_seeds(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"out{hash_seed}"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, "-m", "eovsim.cli", "run", "--config",
                        cfg, "--out", str(out), "--block-trace"],
                       env=env, check=True, capture_output=True)
        outs.append(out)
    for name in ("report.json", "journeys.csv", "blocks.jsonl"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_seed_override_changes_jitter_not_invariants(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(out1)])
    main(["run", "--config", cfg, "--out", str(out2), "--seed", "123"])
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["dispatch_digest"] != r2["dispatch_digest"]
    assert r2["all_peers_agree"] is True
    assert r2["seed"] == 123


def test_invalid_config_exits_1_with_field_name(tmp_path, capsys):
    for doc, field in (
            ({"topology": {"peers": 0}}, "topology.peers"),
            ({"timeouts": {"endorse_s": 1e-7}}, "timeouts.endorse_s"),
            ({"workload": {"op_mix": {"query": True}}}, "workload.op_mix.query"),
            ({"workload": {"op_mix": {"query": "x"}}}, "workload.op_mix.query"),
            ({"cutter": {"timeout_s": 1e-7}}, "cutter.timeout_s"),
            ({"workload": {"n_accounts": 1}}, "workload.n_accounts"),
            # two-account ops with one reachable account once hung generate
            ({"workload": {"access": {"kind": "hotspot", "prob_hot": 1.0,
                                      "fraction_hot": 0.0}}},
             "workload.access"),
            ({"workload": {"n_accounts": 2,
                           "access": {"kind": "hotspot", "prob_hot": 0.0,
                                      "fraction_hot": 0.5}}},
             "workload.access"),
            # a hot side picked with probability 1e-300 is never drawn
            ({"workload": {"n_accounts": 2,
                           "access": {"kind": "hotspot", "prob_hot": 1e-300,
                                      "fraction_hot": 0.5}},
              "duration_s": 1.0},
             "workload.access"),
            # one picked with probability 1e-5 took ~1 s per ten proposals
            ({"workload": {"n_accounts": 2,
                           "op_mix": {"send_payment": 1.0},
                           "access": {"kind": "hotspot", "prob_hot": 1e-5,
                                      "fraction_hot": 0.5}},
              "duration_s": 1.0},
             "workload.access")):
        cfg = write_cfg(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1, doc
        assert field in capsys.readouterr().err, doc
    # a file that is valid JSON but not an object is a config error too,
    # wherever a config or spec file is read
    for doc in ([], [1]):
        path = write_cfg(tmp_path, doc, name="list.json")
        for argv in (["run", "--config", path],
                     ["sweep", "--figure", "fig3a", "--config", path],
                     ["sweep", "--spec", path]):
            assert main(argv + ["--out", str(tmp_path / "o")]) == 1, argv
            assert "config error" in capsys.readouterr().err
    # a spec object whose base or axes have the wrong shape
    for doc in ({"base": [1], "axes": []},
                {"base": {}, "axes": [{"values": [1]}]},
                {"base": {}, "axes": {"param": "seed"}},
                {"base": {}, "axes": [{"param": "seed", "values": 3}]}):
        path = write_cfg(tmp_path, doc, name="spec.json")
        assert main(["sweep", "--spec", path,
                     "--out", str(tmp_path / "o")]) == 1, doc
        assert "config error: sweep spec" in capsys.readouterr().err
    # a sweep checks the seed before it adds each cell's index to it
    for seed in ("x", True):
        path = write_cfg(tmp_path, {"seed": seed})
        out = tmp_path / "seeded"
        assert main(["sweep", "--figure", "fig4", "--config", path,
                     "--out", str(out)]) == 1, seed
        assert "field 'seed'" in capsys.readouterr().err, seed
        assert not out.exists()


def test_schedule_guard_buffered_reentry_cell(tmp_path):
    # Small cutter batches and heavy jitter make gossip blocks arrive out of
    # order, so this cell exercises buffered block re-entry. The values pin
    # the event schedule; they change only if the schedule does.
    cfg = write_cfg(tmp_path, {
        "topology": {"peers": 4, "clients": 4, "orderers": 3, "brokers": 3,
                     "non_endorsing": 2},
        "rate": {"total_tps": 200.0}, "cutter": {"max_txn_count": 1},
        "duration_s": 2.0,
        "latency": {"base_us": {"default": 8000}, "jitter_fraction": 0.9},
        "seed": 7})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["events_dispatched"] == 10_281
    assert report["dispatch_digest"] == "de190b8ce6785898"
    assert report["all_peers_agree"] is True


def test_schedule_guard_min_insync_one_cell():
    # With replication factor 1 the leader's own copy is each record's
    # quorum, and the record commits at its append. The values pin the event
    # schedule; they change only if the schedule does.
    result = run_simulation(ExperimentConfig.from_dict({
        "replication": {"replication_factor": 1, "min_insync": 1},
        "duration_s": 2.0, "seed": 5}))
    trace = result.trace
    assert (trace.events_dispatched, trace.dispatch_digest) == \
        (8_460, "1ab6ceecbd90e203")
    assert result.report.all_peers_agree is True


def bench_workloads() -> dict:
    """The benchmark's workload overrides, read from bench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


# Smallbank executions per pinned cell: endorsing peers on one chain tip
# share one, so this counts distinct (proposal, tip) pairs, not proposals
# times peers.
PINNED_EXECUTES = {"default": 6_220, "order-saturated": 4_320,
                   "validate-wide": 2_624}

# sha256 of each pinned cell's journeys.csv and blocks.jsonl: what the
# simulated system did, which a change to how the host schedules it (events
# and digest) must leave byte-identical.
PINNED_OUTPUTS = {
    "default": (
        "086d5c0542f43b60c67f60251dc8797d914f75f7424f97407eb316e86eb2a912",
        "bde55c6cac63c35a6ea8f26dbf8f4d993db295b1bddfa817722c53e37be76ce5"),
    "order-saturated": (
        "414f860b18284a278d0112493d75837d3f3854dbe5249051b3f300e6f4c019f6",
        "15c87b5612b2d43643b3d7c60f3ae8a4af7e9992c783dce916e3bafb4605312b"),
    "validate-wide": (
        "eed146c6a6b18a8f1c2d7e4365f2b82a74f7ef32a2044b3aba2eb798136fec9c",
        "9f4c2eaa19ee4edc05db6dbd6216e67781e14766953e4b3fbbea7f02d44dcd00"),
}


def output_digests(result, tmp_path) -> tuple[str, str]:
    """sha256 of the run's journeys.csv and blocks.jsonl, as cmd_run writes
    them."""
    journeys_to_csv(result.journeys, tmp_path / "journeys.csv")
    blocks = "".join(line + "\n" for line in
                     result.sim.all_peers()[0].ledger.trace_lines())
    return (hashlib.sha256((tmp_path / "journeys.csv").read_bytes()).hexdigest(),
            hashlib.sha256(blocks.encode()).hexdigest())


@pytest.mark.parametrize("workload,seed,events,digest", [
    ("default", 42, 84_591, "68648663eb2f3689"),
    ("order-saturated", 1, 105_297, "f5e375d1f7476b59"),
    ("validate-wide", 1, 45_877, "0fd90b53f51fef93"),
], ids=["default", "order-saturated", "validate-wide"])
def test_schedule_guard_pinned_cell(workload, seed, events, digest,
                                    executions, validations, tmp_path):
    # The default profile and the benchmark's two workloads; the events and
    # digest change only if the event schedule does, the outputs only if the
    # simulated system does.
    overrides = ({} if workload == "default"
                 else copy.deepcopy(bench_workloads()[workload]))
    result = run_simulation(ExperimentConfig.from_dict(
        overrides | {"seed": seed}))
    trace = result.trace
    assert (trace.events_dispatched, trace.dispatch_digest) == (events, digest)
    assert output_digests(result, tmp_path) == PINNED_OUTPUTS[workload]
    assert len(executions) == PINNED_EXECUTES[workload]
    # peers on one chain share one validation: one per committed height,
    # genesis included
    assert validations == list(range(0, result.report.blocks + 1))


def test_a_run_keeps_one_genesis_entry_and_no_endorsement():
    # memory guards, counted in objects: every peer is a height on one
    # chain, whose genesis state is a rule that stores nothing and reads one
    # shared entry; a block keeps no writes; a chain envelope keeps its
    # endorsers' ids, so no Endorsement outlives the run
    cfg = ExperimentConfig.from_dict(SMALL)
    peers = build(cfg).all_peers()
    chain = peers[0].ledger.chain
    assert all(p.ledger.chain is chain and p.ledger.height == 0 for p in peers)
    assert len(chain.state) == 0
    last = cfg.workload.n_accounts - 1
    for peer in peers:
        for key in ("cust/0/checking", f"cust/{last}/savings"):
            assert peer.ledger.read_state(key) is chain.genesis.entry
    assert chain.genesis.entry == (cfg.workload.initial_balance, (0, 0))
    assert "writes" not in Block.__slots__

    def endorsements():
        gc.collect()
        return {id(o) for o in gc.get_objects() if isinstance(o, Endorsement)}

    before = endorsements()
    result = run_simulation(cfg)
    assert result.report.valid_txns > 0
    assert not endorsements() - before


def test_a_run_and_its_report_walk_no_genesis_key(monkeypatch):
    def walk(self):
        raise AssertionError("a run walked the genesis keys")

    monkeypatch.setattr(Genesis, "keys", walk)
    report = run_simulation(ExperimentConfig.from_dict(SMALL)).report
    assert report.valid_txns > 0 and report.all_peers_agree


def test_block_trace_dump(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--block-trace"]) == 0
    lines = (out / "blocks.jsonl").read_text().splitlines()
    assert lines
    heights = [json.loads(line)["height"] for line in lines]
    assert heights == list(range(len(heights)))
    record = json.loads(lines[-1])
    assert set(record) == {"height", "cut_reason", "created_at_us", "txn_ids",
                           "valid"}


def test_default_profile_pre_saturation_throughput(tmp_path):
    # 4 peers / 4 brokers / total 300 tps sits below the ordering
    # capacity, so goodput tracks the offered rate
    cfg = write_cfg(tmp_path, {"duration_s": 10.0})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["resolved"]["capacity_tps"] > 300.0
    assert report["throughput_tps"] >= 0.95 * 300.0


# --- sweeps -------------------------------------------------------------------

def sweep_spec(axes):
    return SweepSpec.from_dict({"base": SMALL, "axes": axes})


def test_sweep_brokers_three_rows(tmp_path):
    spec = sweep_spec([{"param": "topology.brokers", "values": [3, 4, 5]}])
    rows = run_sweep(spec, tmp_path / "s")
    assert len(rows) == 3
    assert [r["topology.brokers"] for r in rows] == [3, 4, 5]
    assert all(not r["error"] for r in rows)
    csv_rows = read_cells_csv(tmp_path / "s" / "cells.csv")
    assert len(csv_rows) == 3
    assert csv_rows[0]["topology.brokers"] == "3"


def test_sweep_orderer_axis_seven_rows(tmp_path):
    spec = sweep_spec([{"param": "topology.orderers",
                        "values": [1, 2, 3, 4, 5, 6, 7]}])
    rows = run_sweep(spec, tmp_path / "s")
    assert len(rows) == 7


def test_empty_axes_single_cell_equals_run(tmp_path):
    spec = sweep_spec([])
    rows = run_sweep(spec, tmp_path / "s")
    assert len(rows) == 1
    cell_report = json.loads(
        (tmp_path / "s" / "cells" / "cell_000" / "report.json").read_text())
    assert abs(cell_report["throughput_tps"] - rows[0]["throughput_tps"]) < 1e-9


def test_cell_seeds_are_base_plus_index(tmp_path):
    spec = sweep_spec([{"param": "replica", "values": [0, 1, 2]}])
    rows = run_sweep(spec, tmp_path / "s", base_seed=100)
    assert [r["seed"] for r in rows] == [100, 101, 102]


def test_paired_axes_advance_together(tmp_path):
    spec = sweep_spec([{"params": ["topology.peers", "topology.clients"],
                        "values": [[2, 2], [3, 3]]}])
    rows = run_sweep(spec, tmp_path / "s")
    assert [(r["topology.peers"], r["topology.clients"]) for r in rows] == \
        [(2, 2), (3, 3)]


def fail_on_seed(monkeypatch, seed):
    """Make sweep cells whose config has this seed raise at run time."""
    real = sweep.run_simulation

    def flaky(cfg):
        if cfg.seed == seed:
            raise RuntimeError("cell broke")
        return real(cfg)
    monkeypatch.setattr(sweep, "run_simulation", flaky)


def test_failing_cell_recorded_without_aborting(tmp_path, monkeypatch):
    fail_on_seed(monkeypatch, 101)
    spec = sweep_spec([{"param": "replica", "values": [0, 1, 2]}])
    rows = run_sweep(spec, tmp_path / "s", base_seed=100)
    assert [r["error"] for r in rows] == ["", "RuntimeError: cell broke", ""]
    assert rows[1]["seed"] == 101
    assert rows[1]["throughput_tps"] == ""
    assert len(read_cells_csv(tmp_path / "s" / "cells.csv")) == 3
    assert (tmp_path / "s" / "cells" / "cell_002" / "report.json").exists()


def test_sweep_cells_checked_before_any_runs_and_exit_codes(
        tmp_path, monkeypatch, capsys):
    base = {"duration_s": 1.0, "rate": {"total_tps": 40.0},
            "topology": {"peers": 2, "clients": 2, "brokers": 3,
                         "orderers": 1}}

    def sweep_cli(name, axis):
        spec = write_cfg(tmp_path, {"base": base, "axes": [axis]},
                         name=f"{name}.json")
        return main(["sweep", "--spec", spec, "--seed", "10",
                     "--out", str(tmp_path / name)])

    # a cell whose config is bad exits 1, naming cell and field, before
    # any cell runs; an op_mix is replaced whole, so one op is not a mix
    for name, axis, field in [
            ("lat", {"param": "latency.base_us.client-peers", "values": [5]},
             "latency.base_us.client-peers"),
            ("mixkey", {"param": "workload.op_mix.query", "values": [0.5]},
             "op_mix"),
            ("insync", {"param": "replication.min_insync", "values": [1, 99]},
             "min_insync")]:
        assert sweep_cli(name, axis) == 1, name
        err = capsys.readouterr().err
        assert "config error: sweep cell" in err and field in err, err
        assert not (tmp_path / name).exists()
    # whole mixes run
    mixes = [{"query": 1.0}, {"send_payment": 0.5, "query": 0.5}]
    assert sweep_cli("mix", {"param": "workload.op_mix", "values": mixes}) == 0
    rows = read_cells_csv(tmp_path / "mix" / "cells.csv")
    assert [r["error"] for r in rows] == ["", ""]
    # a cell failing at run time: every row is written, then exit 2
    capsys.readouterr()
    fail_on_seed(monkeypatch, 11)
    assert sweep_cli("flaky", {"param": "replica", "values": [0, 1, 2]}) == 2
    assert "(1 failed)" in capsys.readouterr().out
    rows = read_cells_csv(tmp_path / "flaky" / "cells.csv")
    assert [bool(r["error"]) for r in rows] == [False, True, False]


@pytest.mark.parametrize("axes,named", [
    ([{"param": "seed", "values": [1, 2, 3]}], "'seed'"),
    ([{"param": "topology.peers", "values": [2, 3]},
      {"param": "topology.peers", "values": [4]}],
     "'topology.peers' and 'topology.peers'"),
    ([{"param": "topology", "values": [{"peers": 2}]},
      {"param": "topology.peers", "values": [3]}],
     "'topology' and 'topology.peers'"),
], ids=["seed", "repeated", "prefix"])
def test_colliding_sweep_parameters_exit_1_before_any_cell_runs(
        tmp_path, capsys, axes, named):
    # the sweep owns the seed (base + cell index), and two axes that set
    # one field would leave cells.csv naming values no cell ran
    spec = write_cfg(tmp_path, {"base": SMALL, "axes": axes}, name="spec.json")
    out = tmp_path / "out"
    assert main(["sweep", "--spec", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: sweep spec" in err and named in err, err
    assert not out.exists()


def test_spec_base_op_mix_replaces_config_mix(tmp_path):
    # every layer merges as one config override does: a mix is replaced
    # whole, never merged key by key into a mix that sums past 1
    small = {"duration_s": 1.0, "rate": {"total_tps": 40.0},
             "topology": {"peers": 2, "clients": 2, "brokers": 3,
                          "orderers": 1}}
    spec = write_cfg(tmp_path, {
        "base": small | {"workload": {"op_mix": {"send_payment": 1.0}}},
        "axes": []}, name="spec.json")
    cfg = write_cfg(tmp_path, {"workload": {"op_mix": {
        "query": 0.5, "deposit_checking": 0.5}}})
    out = tmp_path / "s"
    assert main(["sweep", "--spec", spec, "--config", cfg,
                 "--out", str(out)]) == 0
    (row,) = read_cells_csv(out / "cells.csv")
    assert row["error"] == ""
    report = json.loads(
        (out / "cells" / "cell_000" / "report.json").read_text())
    assert report["config"]["workload"]["op_mix"] == {"send_payment": 1.0}


def test_unknown_axis_param_rejected(tmp_path):
    spec = sweep_spec([{"param": "topology.galaxy", "values": [1]}])
    with pytest.raises(ConfigError, match="sweep cell 0 .*galaxy"):
        run_sweep(spec, tmp_path / "s")
    assert not (tmp_path / "s").exists()


def test_parallel_sweep_matches_serial(tmp_path):
    spec = sweep_spec([{"param": "topology.brokers", "values": [3, 4]},
                       {"param": "replica", "values": [0, 1]}])
    serial = run_sweep(spec, tmp_path / "ser")
    parallel = run_sweep(spec, tmp_path / "par", workers=2)
    assert serial == parallel
    assert (tmp_path / "ser" / "cells.csv").read_bytes() == \
        (tmp_path / "par" / "cells.csv").read_bytes()


def recording_pool(monkeypatch):
    """Put a fake in place of the sweep's process pool; returns the list of
    pool sizes asked for. The fake maps its tasks in this process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return sizes


def test_pool_is_no_larger_than_the_cell_count(tmp_path, monkeypatch):
    sizes = recording_pool(monkeypatch)
    spec = sweep_spec([{"param": "replica", "values": [0, 1, 2]}])
    rows = run_sweep(spec, tmp_path / "three", workers=64)
    assert sizes == [3]
    assert [r["error"] for r in rows] == ["", "", ""]
    # one cell runs in this process, without a pool
    assert len(run_sweep(sweep_spec([]), tmp_path / "one", workers=64)) == 1
    assert sizes == [3]


def test_a_run_loads_no_process_pool():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, eovsim.cli; "
         "print('multiprocessing' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "False"


def test_workers_below_one_exit_1_before_any_cell_runs(
        tmp_path, monkeypatch, capsys):
    sizes = recording_pool(monkeypatch)
    for workers in ("0", "-3"):
        out = tmp_path / f"w{workers}"
        assert main(["sweep", "--figure", "fig4", "--workers", workers,
                     "--out", str(out)]) == 1, workers
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()
    assert sizes == []


def test_cli_sweep_and_report_figure(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--figure", "fig10", "--out", str(out),
                 "--config", write_cfg(tmp_path, {"duration_s": 2.0,
                                                  "rate": {"total_tps": 40.0},
                                                  "topology": {"peers": 2,
                                                               "clients": 2}})]) == 0
    cells = out / "cells.csv"
    assert cells.exists()
    fig_out = tmp_path / "figs"
    assert main(["report", "--cells", str(cells), "--figure", "fig10",
                 "--out", str(fig_out)]) == 0
    dat = fig_out / "fig10_throughput_tps.dat"
    assert dat.exists()
    lines = [l for l in dat.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 3  # one x point per broker count
    for line in lines:
        x, mean, stderr = line.split()
        float(x), float(mean), float(stderr)


def test_report_two_series_for_replication_figure(tmp_path):
    rows = [
        {"rate.total_tps": "150", "replication.replication_factor": "15",
         "replication.min_insync": "14", "throughput_tps": "149", "error": ""},
        {"rate.total_tps": "150", "replication.replication_factor": "1",
         "replication.min_insync": "1", "throughput_tps": "150", "error": ""},
    ]
    written = extract_figure(rows, "fig9", tmp_path)
    names = {p.name for p in written}
    assert names == {"fig9_replication_factor_1_throughput_tps.dat",
                     "fig9_replication_factor_15_throughput_tps.dat"}


def test_report_single_row_single_point(tmp_path):
    rows = [{"topology.orderers": "4", "throughput_tps": "100",
             "avg_latency_s": "0.2", "error": ""}]
    written = extract_figure(rows, "fig4", tmp_path)
    for path in written:
        lines = [l for l in path.read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 1


def test_report_missing_column_is_named(tmp_path, capsys):
    rows = [{"throughput_tps": "1", "error": ""}]
    with pytest.raises(ConfigError, match="topology.orderers"):
        extract_figure(rows, "fig4", tmp_path)
    # x, series and every y column are checked before any file is written
    for figure, row, missing in (
            ("fig4", {"topology.orderers": "4", "throughput_tps": "1"},
             "avg_latency_s"),
            ("fig9", {"rate.total_tps": "150", "throughput_tps": "1"},
             "replication.replication_factor")):
        out = tmp_path / figure
        with pytest.raises(ConfigError, match=missing):
            extract_figure([row | {"error": ""}], figure, out)
        assert not out.exists()
        cells = tmp_path / f"{figure}.csv"
        cells.write_text(",".join(row) + ",error\n"
                         + ",".join(row.values()) + ",\n")
        assert main(["report", "--cells", str(cells), "--figure", figure,
                     "--out", str(out)]) == 1
        assert missing in capsys.readouterr().err
        assert not out.exists()
    # the cells file itself: missing, empty, header-only, and a value that
    # is not a number; each exits 1 naming the problem and writes nothing
    for name, text, problem in (
            ("absent.csv", None, "cannot read"),
            ("empty.csv", "", "no header row"),
            ("header.csv", "cell,rate.total_tps,throughput_tps,error\n",
             "no rows"),
            ("nan.csv", "cell,rate.total_tps,replication.replication_factor,"
                        "throughput_tps,error\n3,fast,15,1,\n",
             "column 'rate.total_tps' of cell '3' is not a number")):
        cells, out = tmp_path / name, tmp_path / f"out_{name}"
        if text is not None:
            cells.write_text(text)
        assert main(["report", "--cells", str(cells), "--figure", "fig9",
                     "--out", str(out)]) == 1, name
        assert problem in capsys.readouterr().err, name
        assert not out.exists()
