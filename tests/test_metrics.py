import csv
import json

import pytest

from eovsim.config import ExperimentConfig
from eovsim.driver import JourneyStatus, TxnJourney
from eovsim.metrics import (JOURNEY_COLUMNS, aggregate, journeys_to_csv,
                            percentile)
from eovsim.simulation import collect_report, run_simulation

TINY = {"duration_s": 1.0, "rate": {"total_tps": 20.0},
        "topology": {"peers": 2, "clients": 2, "orderers": 2, "brokers": 3}}


def journey(i, submit_us, commit_us=None, status=JourneyStatus.COMMITTED):
    return TxnJourney(txn_id=f"t{i}", client="c0", index=i, op_name="query",
                      submit_us=submit_us, endorsed_us=None, bcast_ack_us=None,
                      commit_us=commit_us, status=status)


def make_report(journeys, window=(0, 10_000_000)):
    return aggregate(journeys, window)


def test_throughput_3000_committed_in_10s_window():
    journeys = [journey(i, submit_us=i * 1000, commit_us=i * 1000 + 500)
                for i in range(3000)]
    report = make_report(journeys)
    assert report["throughput_tps"] == 300.0
    assert report["committed"] == 3000


def test_no_submissions_yields_zeroes_and_undefined_latency():
    report = make_report([])
    assert report["submitted"] == 0
    assert report["throughput_tps"] == 0.0
    assert report["avg_latency_s"] is None
    assert report["p50_s"] is None and report["p95_s"] is None


def test_run_without_submissions_reports_undefined_ratios():
    cfg = ExperimentConfig.from_dict(
        TINY | {"rate": {"total_txns_per_client": 0}})
    report = run_simulation(cfg).report
    assert report.submitted == report.enqueue_attempts_final == 0
    assert report.r_ratio is None and report.r_ratio_final is None
    assert report.avg_latency_s is None


def test_known_latencies_average():
    journeys = [journey(i, 0, commit_us=(i + 1) * 1_000_000) for i in range(3)]
    report = make_report(journeys)
    assert report["avg_latency_s"] == 2.0
    assert report["p50_s"] == 2.0
    assert report["p95_s"] == 3.0


def test_window_excludes_warmup_and_post_duration_submissions():
    journeys = [journey(0, 500_000, 600_000),          # before window
                journey(1, 2_000_000, 2_100_000),      # inside
                journey(2, 9_999_999, 10_500_000),     # inside, commits late
                journey(3, 10_000_000, 10_100_000)]    # at window end: out
    report = make_report(journeys, window=(1_000_000, 10_000_000))
    assert report["submitted"] == 2
    assert report["committed"] == 2


def test_status_partition_counts():
    journeys = [
        journey(0, 0, 1_000, JourneyStatus.COMMITTED),
        journey(1, 0, 2_000, JourneyStatus.INVALID_COMMITTED),
        journey(2, 0, None, JourneyStatus.DROPPED_ENDORSEMENT),
        journey(3, 0, None, JourneyStatus.DROPPED_BROADCAST),
        journey(4, 0, None, JourneyStatus.IN_FLIGHT),
    ]
    report = make_report(journeys)
    assert (report["committed"], report["invalid_committed"],
            report["dropped_endorse"], report["dropped_broadcast"],
            report["in_flight"]) == (1, 1, 1, 1, 1)
    assert report["submitted"] == 5


@pytest.fixture
def tiny_run():
    return run_simulation(ExperimentConfig.from_dict(TINY))


def test_r_ratios(tiny_run):
    # the ratios are the orderers' summed counters, window and final
    first, second = tiny_run.sim.orderers
    first.window_attempts, first.window_successes = 10, 6
    second.window_attempts, second.window_successes = 7, 4
    first.enqueue_attempts = first.enqueue_successes = 12
    second.enqueue_attempts = second.enqueue_successes = 8
    report = collect_report(tiny_run.sim, tiny_run.trace, tiny_run.journeys)
    assert report.r_ratio == 1.7
    assert report.r_ratio_final == 1.0


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.50) == 2.0
    assert percentile(values, 0.95) == 4.0
    assert percentile([7.0], 0.5) == 7.0


def test_report_json_round_trips_and_is_stable(tiny_run):
    report = tiny_run.report
    first = report.to_json()
    again = collect_report(tiny_run.sim, tiny_run.trace, tiny_run.journeys)
    assert first == again.to_json()
    parsed = json.loads(first)
    assert parsed["throughput_tps"] == report.throughput_tps
    assert report.avg_latency_s is not None
    assert parsed["avg_latency_s"] == report.avg_latency_s


def test_journeys_csv_schema(tmp_path):
    path = tmp_path / "journeys.csv"
    journeys = [journey(0, 0, 1_000), journey(1, 10, None,
                                              JourneyStatus.IN_FLIGHT)]
    journeys[0].endorsed_us = 400
    journeys[0].bcast_ack_us = 700
    journeys_to_csv(journeys, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == JOURNEY_COLUMNS
    assert rows[1] == ["t0", "c0", "query", "0", "400", "700", "1000",
                       "Committed"]
    assert rows[2] == ["t1", "c0", "query", "10", "", "", "", "InFlight"]
