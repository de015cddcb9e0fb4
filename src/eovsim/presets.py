"""Default experiment profile and named figure scenarios.

PAPER_LIKE is the desk-scale profile; its numbers are calibration data, not
physical measurements. A config's ordering capacity is 1e6 / D tps, D being
ExperimentConfig.leader_demand_us: 3,517 us and 284.3 tps for the 16-peer,
16-broker topology the figures sweep, between 250 and 400 offered tps. To
recalibrate, solve D for service_us.leader_order.

Figure scenarios are sweep specifications mirroring the benchmark grids:
saturation rate sweeps, orderer-count overhead, peer scaling, replication
extremes and broker scaling.
"""

from __future__ import annotations

import copy

PAPER_LIKE = {
    "topology": {
        "peers": 4,
        "clients": 4,
        "orderers": 4,
        "brokers": 4,
        "non_endorsing": 0,
    },
    "rate": {
        "total_tps": 300.0,
        "per_client_tps": None,
        "total_txns_per_client": None,
    },
    "duration_s": 20.0,
    "warmup_fraction": 0.1,
    "drain_limit_s": 120.0,
    "seed": 42,
    "replica": 0,
    "workload": {
        "n_accounts": 10000,
        "initial_balance": 10000,
        "max_amount": 200,
        "op_mix": {
            "transact_savings": 0.15,
            "deposit_checking": 0.15,
            "send_payment": 0.25,
            "write_check": 0.15,
            "amalgamate": 0.15,
            "query": 0.15,
        },
        "access": {"kind": "uniform", "fraction_hot": 0.01, "prob_hot": 0.5},
    },
    "policy": {"threshold": None},
    "cutter": {
        "max_txn_count": 100,
        "timeout_s": 2.0,
        "max_block_bytes": 10485760,
    },
    "replication": {"replication_factor": None, "min_insync": 2},
    "latency": {
        "base_us": {
            "default": 1000,
            "broker-broker": 500,
            "orderer-broker": 300,
        },
        "per_byte_ns": 8,
        "jitter_fraction": 0.1,
    },
    "service_us": {
        "endorse": 1000,
        "validate_per_txn": 100,
        "orderer_forward": 300,
        "orderer_notice": 150,
        "orderer_deliver_stagger": 2000,
        "broker_append": 200,
        "leader_order": 2400,
        "leader_copy_send": 10,
        "leader_notice_send": 60,
        "leader_order_per_byte_ns": 100,
    },
    "timeouts": {"endorse_s": 1.0, "broadcast_s": 2.0},
    "queues": {"orderer_capacity": 5000},
    "sizes_bytes": {
        "proposal": 256,
        "endorsement": 320,
        "notice": 64,
        "log_ack": 64,
        "log_overhead": 64,
        "block_header": 128,
        "block_txn_summary": 32,
    },
}

SATURATION_RATES = [200.0, 250.0, 300.0, 350.0, 400.0, 425.0]

# Replication extremes: 300 tps is above the capacity of both (284.3 tps at
# RF 15, 296.1 tps at RF 1); past saturation the broadcast-timeout cliff
# amplifies that small capacity gap as a run grows longer.
REPLICATION_SWEEP_RATES = [150.0, 200.0, 250.0, 300.0]


def _nck(n: int) -> dict:
    return {"topology": {"peers": n, "clients": n, "brokers": n}}


def _paired(params: list[str], rows: list[list]) -> dict:
    return {"params": params, "values": rows}


def _axis(param: str, values: list) -> dict:
    return {"params": [param], "values": [[v] for v in values]}


def _replicas(n: int) -> dict:
    return _axis("replica", list(range(n)))


# fig7 and fig8 plot different columns of one grid. figure_sweep copies a
# figure's base and axes, so the two never share a mutable spec.
PEER_SCALING = {
    "base": {"topology": {"brokers": 16}, "rate": {"total_tps": 400.0}},
    "axes": [
        _paired(["topology.peers", "topology.clients"],
                [[4, 4], [8, 8], [16, 16], [24, 24]]),
        _replicas(3),
    ],
}

FIGURES = {
    "fig3a": {
        "description": "Saturation sweep: throughput/latency vs offered rate, "
                       "N=C=K=16, O=4",
        "base": _nck(16),
        "axes": [_axis("rate.total_tps", SATURATION_RATES)],
        "x": "rate.total_tps",
        "y": ["throughput_tps", "avg_latency_s"],
        "series_by": None,
    },
    "fig3b": {
        "description": "Fixed per-client rate T=30, scaling N=C with K=16",
        "base": {"topology": {"brokers": 16},
                 "rate": {"total_tps": None, "per_client_tps": 30.0}},
        "axes": [_paired(["topology.peers", "topology.clients"],
                         [[4, 4], [8, 8], [12, 12], [16, 16]])],
        "x": "topology.peers",
        "y": ["throughput_tps", "avg_latency_s"],
        "series_by": None,
    },
    "fig4": {
        "description": "Orderer overhead: N=K=16, offered 300 tps, O=4..10",
        "base": _nck(16),
        "axes": [_axis("topology.orderers", [4, 5, 6, 7, 8, 9, 10])],
        "x": "topology.orderers",
        "y": ["throughput_tps", "avg_latency_s"],
        "series_by": None,
    },
    "fig6": {
        "description": "Single client C=1, scaling N=K, offered 300 tps",
        "base": {"topology": {"clients": 1}},
        "axes": [_paired(["topology.peers", "topology.brokers"],
                         [[4, 4], [8, 8], [16, 16]])],
        "x": "topology.peers",
        "y": ["throughput_tps"],
        "series_by": None,
    },
    "fig7": {
        "description": "Peer scaling at offered 400 tps, K=16 fixed",
        **PEER_SCALING,
        "x": "topology.peers",
        "y": ["throughput_tps", "dropped_endorse"],
        "series_by": None,
    },
    "fig8": {
        "description": "Peer scaling latencies (same grid as fig7)",
        **PEER_SCALING,
        "x": "topology.peers",
        "y": ["avg_latency_s", "p95_s"],
        "series_by": None,
    },
    "fig9": {
        "description": "Replication extremes, N=C=K=16, intra-cluster latency "
                       "at 10% of client-peer",
        "base": {"topology": {"peers": 16, "clients": 16, "brokers": 16},
                 "latency": {"base_us": {"broker-broker": 100}}},
        "axes": [
            _paired(["replication.replication_factor", "replication.min_insync"],
                    [[15, 14], [1, 1]]),
            _axis("rate.total_tps", REPLICATION_SWEEP_RATES),
        ],
        "x": "rate.total_tps",
        "y": ["throughput_tps"],
        "series_by": "replication.replication_factor",
    },
    "fig10": {
        "description": "Broker scaling: N=C=16, offered 300 tps, K in {4,8,16}",
        "base": {"topology": {"peers": 16, "clients": 16}},
        "axes": [_axis("topology.brokers", [4, 8, 16]), _replicas(3)],
        "x": "topology.brokers",
        "y": ["throughput_tps", "avg_latency_s"],
        "series_by": None,
    },
}


def figure_sweep(name: str) -> dict:
    """Sweep spec dict for a named figure scenario."""
    if name not in FIGURES:
        raise KeyError(f"unknown figure {name!r}; known: {sorted(FIGURES)}")
    fig = FIGURES[name]
    return {"base": copy.deepcopy(fig["base"]),
            "axes": copy.deepcopy(fig["axes"])}
