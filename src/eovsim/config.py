"""Experiment configuration: schema, validation, and resolution.

A config file is a single JSON document; any field left out takes its value
from the PAPER_LIKE profile. Every input rule is checked once, here, and its
error names the field's dotted path; the model records trust their values.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

from . import presets
from .engine import US_PER_SECOND, LatencyModel, NodeClass
from .smallbank import (TWO_ACCOUNT_OPS, AccessPattern, OpKind,
                        WorkloadConfig, reachable_accounts)


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ServiceTimes:
    endorse: int
    validate_per_txn: int
    orderer_forward: int
    orderer_notice: int
    orderer_deliver_stagger: int
    broker_append: int
    leader_order: int
    leader_copy_send: int
    leader_notice_send: int
    leader_order_per_byte_ns: int


@dataclass(frozen=True)
class MessageSizes:
    proposal: int
    endorsement: int
    notice: int
    log_ack: int
    log_overhead: int
    block_header: int
    block_txn_summary: int


@dataclass(frozen=True)
class BlockCutterConfig:
    max_txn_count: int
    timeout_us: int
    max_block_bytes: int


def _deep_merge(base: dict, overrides: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in overrides.items():
        here = f"{path}.{key}" if path else key
        if key not in base and not _is_open_dict(path):
            raise ConfigError(f"unknown field {here!r}")
        if isinstance(base.get(key), dict):
            if not isinstance(value, dict):
                raise ConfigError(f"field {here!r} must be an object")
            # A mix is a complete distribution; partial edits make no sense.
            out[key] = (copy.deepcopy(value) if here == "workload.op_mix"
                        else _deep_merge(base[key], value, here))
        else:
            out[key] = copy.deepcopy(value)
    return out


def _is_open_dict(path: str) -> bool:
    # Sections whose keys are data, not schema: new keys are welcome.
    return path in ("workload.op_mix", "latency.base_us")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _as_int(raw: dict, path: str, minimum: int | None = None) -> int:
    value = _lookup(raw, path)
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"field {path!r} must be an integer, got {value!r}")
    if minimum is not None:
        _require(value >= minimum, f"field {path!r} must be >= {minimum}")
    return value


def _as_number(raw: dict, path: str, minimum: float | None = None,
               strict: bool = False) -> float:
    value = _lookup(raw, path)
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and -math.inf < value < math.inf,
             f"field {path!r} must be a finite number, got {value!r}")
    if minimum is not None:
        if strict:
            _require(value > minimum, f"field {path!r} must be > {minimum}")
        else:
            _require(value >= minimum, f"field {path!r} must be >= {minimum}")
    return float(value)


def _as_us(raw: dict, path: str, minimum: int) -> int:
    """A seconds field rounded to whole us, refused below minimum us."""
    us = round(_as_number(raw, path, 0.0) * US_PER_SECOND)
    _require(us >= minimum,
             f"field {path!r} must be >= {minimum / US_PER_SECOND} s")
    return us


def _ids(role: str, count: int) -> tuple[str, ...]:
    return tuple(f"{role}{i:03d}" for i in range(count))


def _lookup(raw: dict, path: str):
    node = raw
    for part in path.split("."):
        node = node[part]
    return node


class ExperimentConfig:
    """Validated, fully resolved experiment description. It names the run's
    nodes: client000.., peer000.. (endorsing), npeer000.. (non-endorsing),
    orderer000.. and broker000..; broker000 is the static log leader and
    the next replication_factor - 1 brokers are its followers."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.peers = _as_int(raw, "topology.peers", 1)
        self.clients = _as_int(raw, "topology.clients", 1)
        self.orderers = _as_int(raw, "topology.orderers", 1)
        self.brokers = _as_int(raw, "topology.brokers", 1)
        self.non_endorsing = _as_int(raw, "topology.non_endorsing", 0)
        self.peer_ids = _ids("peer", self.peers)
        self.npeer_ids = _ids("npeer", self.non_endorsing)
        self.client_ids = _ids("client", self.clients)
        self.orderer_ids = _ids("orderer", self.orderers)
        self.broker_ids = _ids("broker", self.brokers)
        self.leader_id = self.broker_ids[0]

        rate = raw["rate"]
        _require((rate["total_tps"] is None) != (rate["per_client_tps"] is None),
                 "exactly one of rate.total_tps / rate.per_client_tps required")
        if rate["per_client_tps"] is None:
            total = _as_number(raw, "rate.total_tps", 0, strict=True)
            self.per_client_tps = total / self.clients
        else:
            self.per_client_tps = _as_number(raw, "rate.per_client_tps", 0,
                                             strict=True)
        self.total_tps = self.per_client_tps * self.clients
        self.total_txns_per_client = (
            None if rate["total_txns_per_client"] is None
            else _as_int(raw, "rate.total_txns_per_client", 0))

        self.duration_us = _as_us(raw, "duration_s", 1)
        warmup = _as_number(raw, "warmup_fraction", 0.0)
        _require(warmup < 1.0, "field 'warmup_fraction' must be in [0, 1)")
        self.warmup_us = int(self.duration_us * warmup)
        self.drain_limit_us = _as_us(raw, "drain_limit_s", 0)
        self.seed = _as_int(raw, "seed")
        _as_int(raw, "replica", 0)  # a figure's repeat label; nothing reads it

        w = raw["workload"]
        mix = w["op_mix"]
        known = {k.value for k in OpKind}
        for name in mix:
            _require(name in known, f"unknown op {name!r} in workload.op_mix")
            _require(_as_number(raw, f"workload.op_mix.{name}", 0.0) <= 1.0,
                     f"field 'workload.op_mix.{name}' must be in [0, 1]")
        total = sum(mix.values())
        _require(abs(total - 1.0) <= 1e-9,
                 f"field 'workload.op_mix' must sum to 1, got {total}")
        _require(w["access"]["kind"] in ("uniform", "hotspot"),
                 "field 'workload.access.kind' must be 'uniform' or 'hotspot'")
        for name in ("fraction_hot", "prob_hot"):
            _require(_as_number(raw, f"workload.access.{name}", 0.0) <= 1.0,
                     f"field 'workload.access.{name}' must be in [0, 1]")
        self.workload = WorkloadConfig(
            n_accounts=_as_int(raw, "workload.n_accounts", 1),
            op_mix=dict(mix),
            access=AccessPattern(**w["access"]),
            seed=self.seed,
            max_amount=_as_int(raw, "workload.max_amount", 1),
            initial_balance=_as_int(raw, "workload.initial_balance", 0),
        )
        if (any(mix.get(op.value, 0) > 0 for op in TWO_ACCOUNT_OPS)
                and reachable_accounts(self.workload) < 2):
            name = "n_accounts" if self.workload.n_accounts < 2 else "access"
            raise ConfigError(f"field 'workload.{name}' leaves one account to "
                              "draw, but send_payment and amalgamate need two")

        threshold = (self.peers if raw["policy"]["threshold"] is None
                     else _as_int(raw, "policy.threshold"))
        _require(1 <= threshold <= self.peers,
                 "field 'policy.threshold' must be in 1..topology.peers")
        self.policy_threshold = threshold

        self.cutter = BlockCutterConfig(
            max_txn_count=_as_int(raw, "cutter.max_txn_count", 1),
            timeout_us=_as_us(raw, "cutter.timeout_s", 1),
            max_block_bytes=_as_int(raw, "cutter.max_block_bytes", 1),
        )

        rf = (max(1, self.brokers - 1)
              if raw["replication"]["replication_factor"] is None
              else _as_int(raw, "replication.replication_factor"))
        _require(1 <= rf <= self.brokers,
                 "field 'replication.replication_factor' must be in 1..topology.brokers")
        self.replication_factor = rf
        self.follower_ids = self.broker_ids[1:rf]
        insync = _as_int(raw, "replication.min_insync", 1)
        _require(insync <= rf,
                 "field 'replication.min_insync' must be <= replication_factor")
        self.min_insync = insync

        classes = {c.value: c for c in NodeClass}
        base = {}  # (src class, dst class) -> us, both orders
        for key, value in raw["latency"]["base_us"].items():
            _require(type(value) is int and value >= 0,
                     f"field 'latency.base_us.{key}' must be an integer >= 0")
            if key == "default":
                continue
            names = key.split("-")
            _require(len(names) == 2 and all(n in classes for n in names),
                     f"field 'latency.base_us.{key}': keys pair two of "
                     f"{', '.join(classes)}, like 'client-peer'")
            a, b = classes[names[0]], classes[names[1]]
            base[(a, b)] = base[(b, a)] = value
        jitter = _as_number(raw, "latency.jitter_fraction", 0.0)
        _require(jitter < 1.0, "field 'latency.jitter_fraction' must be in [0, 1)")
        self.latency = LatencyModel(
            base_us=base,
            default_us=raw["latency"]["base_us"]["default"],
            per_byte_ns=_as_int(raw, "latency.per_byte_ns", 0),
            jitter_fraction=jitter,
        )

        svc = self.service = ServiceTimes(**{
            k: _as_int(raw, f"service_us.{k}", 0) for k in raw["service_us"]})
        self.sizes = MessageSizes(**{k: _as_int(raw, f"sizes_bytes.{k}", 1)
                                     for k in raw["sizes_bytes"]})
        self.envelope_bytes = (self.sizes.proposal
                               + threshold * self.sizes.endorsement)
        # The leader broker's service time per record, in us. Commit notices
        # are pre-charged: every accepted record commits exactly once.
        self.leader_demand_us = (
            svc.leader_order + svc.broker_append
            + len(self.follower_ids) * svc.leader_copy_send
            + self.orderers * svc.leader_notice_send
            + self.envelope_bytes * svc.leader_order_per_byte_ns // 1000)
        self.capacity_tps = (US_PER_SECOND / self.leader_demand_us
                             if self.leader_demand_us else None)

        self.endorse_timeout_us = _as_us(raw, "timeouts.endorse_s", 1)
        self.broadcast_timeout_us = _as_us(raw, "timeouts.broadcast_s", 1)
        self.orderer_capacity = _as_int(raw, "queues.orderer_capacity", 1)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, *layers: dict) -> "ExperimentConfig":
        """PAPER_LIKE with each layer merged over it in turn; later layers
        win. An op_mix replaces the whole mix; unknown fields fail."""
        raw = copy.deepcopy(presets.PAPER_LIKE)
        for layer in layers:
            raw = _deep_merge(raw, layer)
        return cls(raw)

    def resolved(self) -> dict:
        """Full config echo embedded in every output file."""
        out = copy.deepcopy(self.raw)
        out["resolved"] = {
            "per_client_tps": self.per_client_tps,
            "total_tps": self.total_tps,
            "policy_threshold": self.policy_threshold,
            "replication_factor": self.replication_factor,
            "min_insync": self.min_insync,
            "warmup_us": self.warmup_us,
            "duration_us": self.duration_us,
            "envelope_bytes": self.envelope_bytes,
            "leader_demand_us": self.leader_demand_us,
            "capacity_tps": self.capacity_tps,
        }
        return out


def load_json_object(path) -> dict:
    """Read a config or sweep-spec file, which must hold one JSON object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return data


def set_param(overrides: dict, path: str, value) -> None:
    parts = path.split(".")
    node = overrides
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value
