import ast
import json
import re
from pathlib import Path

import pytest

from eovsim import presets
from eovsim.config import (ConfigError, ExperimentConfig, _as_us,
                           load_json_object, set_param)


def test_defaults_load_and_resolve():
    cfg = ExperimentConfig.from_dict({})
    assert cfg.peers == 4 and cfg.brokers == 4
    assert cfg.policy_threshold == 4            # null -> all peers
    assert cfg.replication_factor == 3          # null -> brokers - 1
    assert cfg.min_insync == 2
    assert cfg.per_client_tps == 75.0
    assert cfg.total_tps == 300.0
    assert cfg.warmup_us == 2_000_000
    assert cfg.duration_us == 20_000_000


def test_unknown_field_is_named():
    with pytest.raises(ConfigError, match="topology.bogus"):
        ExperimentConfig.from_dict({"topology": {"bogus": 1}})
    with pytest.raises(ConfigError, match="nonsense"):
        ExperimentConfig.from_dict({"nonsense": True})
    with pytest.raises(ConfigError, match="topology.zookeepers"):
        ExperimentConfig.from_dict({"topology": {"zookeepers": 3}})


@pytest.mark.parametrize("overrides,needle", [
    ({"topology": {"peers": 0}}, "topology.peers"),
    ({"rate": {"total_tps": -1.0}}, "rate.total_tps"),
    ({"duration_s": 0}, "duration_s"),
    ({"cutter": {"max_txn_count": 0}}, "cutter.max_txn_count"),
    ({"replication": {"min_insync": 9}}, "min_insync"),
    ({"replication": {"replication_factor": 9}}, "replication_factor"),
    ({"policy": {"threshold": 99}}, "policy.threshold"),
    ({"timeouts": {"endorse_s": 0}}, "timeouts.endorse_s"),
    ({"latency": {"jitter_fraction": 1.0}}, "jitter_fraction"),
    ({"warmup_fraction": 1.0}, "warmup_fraction"),
    ({"workload": {"op_mix": {"query": 0.7}}}, "workload.op_mix"),
    ({"workload": {"op_mix": {"mystery_op": 1.0}}}, "mystery_op"),
    ({"latency": {"base_us": {"client-peers": 5}}}, "latency.base_us.client-peers"),
    ({"latency": {"base_us": {"monitor-peer": 7}}}, "latency.base_us.monitor-peer"),
    ({"rate": {"total_tps": True}}, "rate.total_tps"),
    ({"rate": {"total_tps": None, "per_client_tps": True}},
     "rate.per_client_tps"),
    ({"rate": {"total_txns_per_client": True}}, "rate.total_txns_per_client"),
    ({"policy": {"threshold": True}}, "policy.threshold"),
    ({"replication": {"replication_factor": True}}, "replication_factor"),
    ({"latency": {"base_us": {"default": -5}}}, "latency.base_us.default"),
    ({"latency": {"base_us": {"default": "x"}}}, "latency.base_us.default"),
    ({"latency": {"base_us": {"default": 1.5}}}, "latency.base_us.default"),
    ({"workload": {"access": {"kind": "zipf"}}}, "workload.access.kind"),
    ({"workload": {"access": {"fraction_hot": -3}}},
     "workload.access.fraction_hot"),
    ({"workload": {"access": {"fraction_hot": 1.5}}},
     "workload.access.fraction_hot"),
    ({"workload": {"access": {"prob_hot": "x"}}}, "workload.access.prob_hot"),
    ({"workload": {"access": {"prob_hot": True}}}, "workload.access.prob_hot"),
    ({"cutter": {"timeout_s": 0}}, "cutter.timeout_s"),
    ({"cutter": {"max_block_bytes": 0}}, "cutter.max_block_bytes"),
    ({"policy": {"threshold": 0}}, "policy.threshold"),
    ({"workload": {"op_mix": {"query": 0.5}}}, "workload.op_mix"),
    ({"workload": {"op_mix": {"query": 1.5, "amalgamate": -0.5}}},
     "workload.op_mix.query"),
    ({"workload": {"op_mix": 5}}, "workload.op_mix"),
    ({"latency": {"base_us": {"client": 7}}}, "latency.base_us.client"),
    ({"latency": {"base_us": {"client-peer-broker": 7}}},
     "latency.base_us.client-peer-broker"),
    ({"rate": {"total_tps": float("inf")}}, "rate.total_tps"),
])
def test_invalid_values_name_their_field(overrides, needle):
    with pytest.raises(ConfigError, match=re.escape(needle)):
        ExperimentConfig.from_dict(overrides)


def _leaf_paths(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, f"{prefix}{key}.")
        else:
            yield prefix + key


# Seconds fields whose zero is refused; 1e-7 s is below their 1 us minimum.
NONZERO_SECONDS = ("duration_s", "cutter.timeout_s", "timeouts.endorse_s",
                   "timeouts.broadcast_s")
BAD_VALUES = [(path, value) for path in _leaf_paths(presets.PAPER_LIKE)
              for value in ("x", True, [1])]
BAD_VALUES += [(path, 1e-7) for path in NONZERO_SECONDS]


@pytest.mark.parametrize("path,value", BAD_VALUES,
                         ids=[f"{p}={v!r}" for p, v in BAD_VALUES])
def test_every_field_names_itself_when_refused(path, value):
    overrides = {}
    if path == "rate.per_client_tps":
        set_param(overrides, "rate.total_tps", None)
    set_param(overrides, path, value)
    with pytest.raises(ConfigError, match=re.escape(path)):
        ExperimentConfig.from_dict(overrides)


@pytest.mark.parametrize("path,seconds,attr,us", [
    ("duration_s", 1.001, "duration_us", 1_001_000),
    ("timeouts.broadcast_s", 0.000251, "broadcast_timeout_us", 251),
])
def test_seconds_fields_round_to_the_nearest_us(path, seconds, attr, us):
    overrides = {}
    set_param(overrides, path, seconds)
    assert getattr(ExperimentConfig.from_dict(overrides), attr) == us


def test_every_millisecond_value_converts_exactly():
    for ms in range(1, 100_001):  # 0.001 s to 100 s
        assert _as_us({"t": ms / 1000}, "t", 1) == ms * 1000


def test_two_account_ops_need_two_accounts():
    with pytest.raises(ConfigError, match="workload.n_accounts"):
        ExperimentConfig.from_dict({"workload": {"n_accounts": 1}})
    with pytest.raises(ConfigError, match="workload.n_accounts"):
        ExperimentConfig.from_dict({"workload": {
            "n_accounts": 1, "op_mix": {"query": 0.5, "amalgamate": 0.5}}})
    cfg = ExperimentConfig.from_dict(
        {"workload": {"n_accounts": 1, "op_mix": {"query": 1.0}}})
    assert cfg.workload.n_accounts == 1
    # an access pattern that reaches one account of many is refused too,
    # unless no op needs two
    hot_only = {"kind": "hotspot", "prob_hot": 1.0, "fraction_hot": 0.0}
    with pytest.raises(ConfigError, match="workload.access"):
        ExperimentConfig.from_dict({"workload": {"access": hot_only}})
    ExperimentConfig.from_dict({"workload": {"access": hot_only,
                                             "op_mix": {"query": 1.0}}})
    # prob_hot 0 with no cold set draws from every account
    ExperimentConfig.from_dict({"workload": {"n_accounts": 2, "access": {
        "kind": "hotspot", "prob_hot": 0.0, "fraction_hot": 1.0}}})


def test_rate_exclusivity():
    with pytest.raises(ConfigError, match="rate"):
        ExperimentConfig.from_dict(
            {"rate": {"total_tps": 10.0, "per_client_tps": 5.0}})
    cfg = ExperimentConfig.from_dict(
        {"rate": {"total_tps": None, "per_client_tps": 30.0}})
    assert cfg.per_client_tps == 30.0
    assert cfg.total_tps == 120.0


def test_base_latency_merge_keeps_other_pairs():
    cfg = ExperimentConfig.from_dict(
        {"latency": {"base_us": {"broker-broker": 100}}})
    from eovsim.engine import NodeClass
    assert cfg.latency.base_for(NodeClass.BROKER, NodeClass.BROKER) == 100
    assert cfg.latency.base_for(NodeClass.ORDERER, NodeClass.BROKER) == 300
    assert cfg.latency.default_us == 1000


def test_op_mix_override_replaces_whole_mix():
    cfg = ExperimentConfig.from_dict(
        {"workload": {"op_mix": {"send_payment": 0.5, "amalgamate": 0.5}}})
    assert set(cfg.workload.op_mix) == {"send_payment", "amalgamate"}


def test_from_dict_merges_its_layers_in_turn():
    a = {"topology": {"peers": 8, "clients": 8}, "seed": 3,
         "workload": {"op_mix": {"query": 0.5, "amalgamate": 0.5}}}
    b = {"topology": {"peers": 6}, "workload": {"op_mix": {"query": 1.0}}}
    cfg = ExperimentConfig.from_dict(a, b)
    assert (cfg.peers, cfg.clients, cfg.seed) == (6, 8, 3)  # field by field
    assert cfg.workload.op_mix == {"query": 1.0}  # the later mix, whole
    assert cfg.raw["workload"]["n_accounts"] == \
        presets.PAPER_LIKE["workload"]["n_accounts"]
    # one layer is the one-argument call it always was
    assert ExperimentConfig.from_dict(b).peers == 6


@pytest.mark.parametrize("layers", [
    ({"topology": {"bogus": 1}}, {"seed": 1}),
    ({"seed": 1}, {"topology": {"bogus": 1}}),
    ({}, {"seed": 1}, {"topology": {"bogus": 1}}),
])
def test_an_unknown_field_in_any_layer_is_named(layers):
    with pytest.raises(ConfigError, match=re.escape("'topology.bogus'")):
        ExperimentConfig.from_dict(*layers)


def test_from_dict_with_no_layers_shares_no_dict_with_the_defaults():
    def dict_ids(tree):
        yield id(tree)
        for value in tree.values():
            if isinstance(value, dict):
                yield from dict_ids(value)

    raw = ExperimentConfig.from_dict().raw
    assert raw == presets.PAPER_LIKE
    assert not set(dict_ids(raw)) & set(dict_ids(presets.PAPER_LIKE))


def test_resolved_echo_contains_inputs_and_derivations():
    cfg = ExperimentConfig.from_dict({"seed": 7})
    echo = cfg.resolved()
    assert echo["seed"] == 7
    assert echo["topology"]["peers"] == 4
    assert echo["resolved"]["policy_threshold"] == 4
    assert echo["resolved"]["total_tps"] == 300.0
    # proposal 256 + 4 endorsements of 320; D = 2400 + 200 + 2*10 + 4*60
    # + 1536*100 // 1000
    assert echo["resolved"]["envelope_bytes"] == 1536
    assert echo["resolved"]["leader_demand_us"] == 3013
    assert echo["resolved"]["capacity_tps"] == pytest.approx(331.895, abs=5e-4)


def test_zero_leader_demand_reports_no_capacity_bound():
    cfg = ExperimentConfig.from_dict({"service_us": {
        "leader_order": 0, "broker_append": 0, "leader_copy_send": 0,
        "leader_notice_send": 0, "leader_order_per_byte_ns": 0}})
    assert cfg.leader_demand_us == 0
    assert cfg.resolved()["resolved"]["capacity_tps"] is None


def test_load_json_object_and_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 9}))
    assert ExperimentConfig.from_dict(load_json_object(path)).seed == 9
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_json_object(bad)
    with pytest.raises(ConfigError):
        load_json_object(tmp_path / "missing.json")
    for text in ("[]", "[1]", "3", "null"):
        bad.write_text(text)
        with pytest.raises(ConfigError, match="JSON object"):
            load_json_object(bad)


def test_set_param_nested():
    overrides = {}
    set_param(overrides, "topology.brokers", 8)
    set_param(overrides, "seed", 5)
    assert overrides == {"topology": {"brokers": 8}, "seed": 5}


def test_figure_presets_are_valid_sweeps():
    from eovsim.sweep import SweepSpec, _cell_config
    for name in presets.FIGURES:
        sweep = presets.figure_sweep(name)
        spec = SweepSpec.from_dict(sweep)
        cells = spec.cells()
        assert cells, name
        # base + every cell of each figure must produce a valid config: the
        # figure's base, the cell's layer, and the seed 42 + cell index
        for index, cell in enumerate(cells):
            layer = {}
            for path, value in cell.items():
                set_param(layer, path, value)
            expected = ExperimentConfig.from_dict(sweep["base"], layer,
                                                  {"seed": 42 + index})
            assert _cell_config(spec, cell, None, index).resolved() == \
                expected.resolved(), (name, index)


def test_every_node_reads_the_runs_one_config():
    from eovsim.engine import Node
    from eovsim.simulation import build
    cfg = ExperimentConfig.from_dict({"topology": {"non_endorsing": 2},
                                      "duration_s": 1.0})
    sim = build(cfg)
    nodes = list(sim.engine.nodes.values())
    assert len(nodes) == 4 + 2 + 4 + 4 + 4
    # the brokers other than the leader receive no event and read nothing
    bare = sim.brokers[1:]
    assert all(type(node) is Node for node in bare)
    assert all(node.cfg is cfg for node in nodes if node not in bare)


def test_build_registers_the_nodes_the_config_names_in_order():
    from eovsim.ordering import BrokerNode
    from eovsim.simulation import build
    cfg = ExperimentConfig.from_dict({
        "topology": {"peers": 3, "non_endorsing": 2, "clients": 2,
                     "orderers": 2, "brokers": 5},
        "replication": {"replication_factor": 3}, "duration_s": 1.0})
    assert cfg.npeer_ids == ("npeer000", "npeer001")
    assert cfg.broker_ids == tuple(f"broker{i:03d}" for i in range(5))
    assert (cfg.leader_id, cfg.follower_ids) == \
        ("broker000", ("broker001", "broker002"))
    sim = build(cfg)
    assert list(sim.engine.nodes) == [*cfg.peer_ids, *cfg.npeer_ids,
                                      *cfg.orderer_ids, *cfg.broker_ids,
                                      *cfg.client_ids]
    assert [isinstance(b, BrokerNode) for b in sim.brokers] == \
        [True, False, False, False, False]
    leader = sim.brokers[0]
    assert (leader.followers, leader.orderers) == \
        (cfg.follower_ids, cfg.orderer_ids)


def test_no_module_imports_another_modules_private_name():
    # Each module's _-prefixed names are its own; sharing one means the
    # thing it does belongs behind a public name of its module.
    src = Path(__file__).resolve().parents[1] / "src" / "eovsim"
    private = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if any(part.startswith("_") for part
                                   in alias.name.split("."))]
    assert not private


def test_repo_sample_config_matches_packaged_profile():
    from pathlib import Path
    sample = Path(__file__).resolve().parents[1] / "configs" / "paper_like.json"
    assert json.loads(sample.read_text()) == presets.PAPER_LIKE
