"""The benchmark's workloads: config overrides applied on top of PAPER_LIKE.

Each workload stresses a different part of the simulator; README.md says
which per-layer numbers each one should move. The seed is not part of a
workload: run.py passes it to every cell with `eovsim run --seed`.
"""

WORKLOADS = {
    # The paper's bottleneck cell: the leader broker's ordering path
    # saturates and most submitted txns time out at broadcast. Host time
    # goes to engine dispatch (16 endorsements and 14 replica copies per
    # txn); ledger work and setup are small.
    "order-saturated": {
        "topology": {"peers": 16, "clients": 16, "orderers": 4,
                     "brokers": 16, "non_endorsing": 0},
        "replication": {"replication_factor": 15},
        "rate": {"total_tps": 400.0},
        "workload": {"access": {"kind": "uniform"}},
        "duration_s": 10.0,
    },
    # Validation-heavy and below saturation: 24 peers validate and hash
    # world state for every block, setup builds a 200k-entry genesis and
    # 24 state forks, and hot keys cause MVCC rollbacks.
    "validate-wide": {
        "topology": {"peers": 8, "clients": 8, "orderers": 4,
                     "brokers": 4, "non_endorsing": 16},
        "rate": {"total_tps": 250.0},
        "workload": {"n_accounts": 100000, "access": {"kind": "hotspot"}},
        "duration_s": 10.0,
    },
}

# Host seconds one cell of each workload takes, process start and checks
# included, at the host's usual speed. A run of S seconds holds
# round(S / CELL_SECONDS) cells (run.cells_per_run): a count that depends
# on S alone, never on how fast the host happens to be during the run.
CELL_SECONDS = {
    "order-saturated": 7.5,
    "validate-wide": 5.0,
}
