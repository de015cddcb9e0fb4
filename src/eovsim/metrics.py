"""The run report, and the figures it reads off transaction journeys.

simulation.collect_report builds the RunReport; aggregate supplies its
journey figures. Throughput counts only committed journeys whose submission
fell inside the measurement window (warm-up excluded); latency averages
commit - submit over those journeys, with p50/p95 reported alongside the
mean. With nothing committed, latency is reported as undefined (null), never
as zero. The enqueue ratio r = attempts / successes is reported twice:
counted up to the window end (backlog shows up as r > 1) and again after the
drain (equal to 1 exactly when every accepted envelope eventually committed).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

from .driver import JourneyStatus, TxnJourney
from .engine import US_PER_SECOND

JOURNEY_COLUMNS = ["txn_id", "client", "op", "submit_us", "endorsed_us",
                   "bcast_ack_us", "commit_us", "status"]


@dataclass
class RunReport:
    config: dict
    seed: int
    window_start_us: int
    window_end_us: int
    submitted: int
    committed: int
    invalid_committed: int
    dropped_endorse: int
    dropped_broadcast: int
    in_flight: int
    throughput_tps: float
    avg_latency_s: float | None
    p50_s: float | None
    p95_s: float | None
    enqueue_attempts_window: int
    enqueue_successes_window: int
    r_ratio: float | None
    enqueue_attempts_final: int
    enqueue_successes_final: int
    refusals: int
    r_ratio_final: float | None
    blocks: int
    mean_block_fill: float | None
    cut_reasons: dict
    valid_txns: int
    policy_violations: int
    mvcc_conflicts: int
    final_height: int
    tip_hash: str
    state_digest: str
    all_peers_agree: bool
    total_balance: int
    events_dispatched: int
    dispatch_digest: str
    end_time_us: int
    truncated: bool
    per_node: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; values need not be pre-sorted."""
    ordered = sorted(values)
    n = len(ordered)
    rank = -(-(q * n) // 1)  # ceil(q * n)
    return ordered[min(n - 1, max(0, int(rank) - 1))]


def aggregate(journeys: list[TxnJourney], window: tuple[int, int]) -> dict:
    """The RunReport fields read off journeys, keyed by field name: status
    counts over the journeys submitted in the window, throughput and
    latency."""
    start, end = window
    in_window = [j for j in journeys if start <= j.submit_us < end]
    by_status = {status: 0 for status in JourneyStatus}
    for j in in_window:
        by_status[j.status] += 1
    committed = by_status[JourneyStatus.COMMITTED]
    window_s = (end - start) / US_PER_SECOND

    latencies = sorted((j.commit_us - j.submit_us) / US_PER_SECOND
                       for j in in_window
                       if j.status is JourneyStatus.COMMITTED)
    if latencies:
        avg = sum(latencies) / len(latencies)
        p50 = percentile(latencies, 0.50)
        p95 = percentile(latencies, 0.95)
    else:
        avg = p50 = p95 = None

    return {
        "submitted": len(in_window),
        "committed": committed,
        "invalid_committed": by_status[JourneyStatus.INVALID_COMMITTED],
        "dropped_endorse": by_status[JourneyStatus.DROPPED_ENDORSEMENT],
        "dropped_broadcast": by_status[JourneyStatus.DROPPED_BROADCAST],
        "in_flight": by_status[JourneyStatus.IN_FLIGHT],
        "throughput_tps": committed / window_s if window_s > 0 else 0.0,
        "avg_latency_s": avg,
        "p50_s": p50,
        "p95_s": p95,
    }


def journeys_to_csv(journeys: list[TxnJourney], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(JOURNEY_COLUMNS)
        for j in journeys:
            writer.writerow([
                j.txn_id, j.client, j.op_name, j.submit_us,
                "" if j.endorsed_us is None else j.endorsed_us,
                "" if j.bcast_ack_us is None else j.bcast_ack_us,
                "" if j.commit_us is None else j.commit_us,
                j.status.value if j.status is not None else "",
            ])
