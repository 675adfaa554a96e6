"""The benchmark's own accounting: percentiles with their sample count,
failure shares against attempts, span arithmetic.

Run with ``PYTHONPATH=src python3 -m pytest perfbench/tests``.
"""

import pytest

import stats
import tracing


def test_latency_summary_reports_count_and_interpolates():
    seconds = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
    summary = stats.latency_summary(seconds)
    assert summary["n"] == 100
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert summary["p99_ms"] == pytest.approx(99.01)


def test_latency_summary_empty_and_single():
    assert stats.latency_summary([]) == {"p50_ms": 0.0, "p99_ms": 0.0, "n": 0}
    one = stats.latency_summary([0.002])
    assert one["n"] == 1
    assert one["p50_ms"] == one["p99_ms"] == pytest.approx(2.0)


def test_failed_counts_shed_errors_and_anomalies_against_attempts():
    outcome = stats.Outcome(attempted=200, shed=3, errors=2, anomalies=5)
    assert outcome.failed == 10
    assert outcome.failed_frac == pytest.approx(0.05)
    assert outcome.good == 190


def test_outcomes_add_up():
    total = stats.Outcome(10, 1, 0, 0) + stats.Outcome(30, 0, 2, 1)
    assert (total.attempted, total.shed, total.errors, total.anomalies) == (
        40, 1, 2, 1)
    assert total.failed_frac == pytest.approx(4 / 40)


def test_failed_frac_without_attempts_is_zero():
    assert stats.Outcome().failed_frac == 0.0


def test_digest_depends_on_order_and_content():
    a = stats.digest([["r1", "admitted", 1.5], ["r2", "rejected", 0.0]])
    assert a == stats.digest([["r1", "admitted", 1.5], ["r2", "rejected", 0.0]])
    assert a != stats.digest([["r2", "rejected", 0.0], ["r1", "admitted", 1.5]])
    assert a != stats.digest([["r1", "admitted", 1.5000001], ["r2", "rejected", 0.0]])


def test_union_length_merges_overlaps_and_clips():
    spans = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]
    assert tracing.union_length(spans) == pytest.approx(4.0)
    assert tracing.union_length(spans, 2.5, 5.5) == pytest.approx(1.0)
    assert tracing.union_length([]) == 0.0


def test_self_time_subtracts_children():
    spans = [
        ("batch", 0.0, 10.0, 1, None, None),
        ("solve", 2.0, 6.0, 2, 1, None),
        ("verify", 5.0, 7.0, 3, 1, None),
    ]
    table = tracing.self_times(spans)
    assert table["batch"] == (1, pytest.approx(10.0), pytest.approx(5.0))
    assert table["solve"] == (1, pytest.approx(4.0), pytest.approx(4.0))


def test_coverage_is_mean_share_of_client_wall():
    client = {"a": (0.0, 10.0), "b": (0.0, 4.0)}
    server = [
        ("decode", 1.0, 2.0, 1, None, "a"),
        ("submit", 2.0, 6.0, 2, None, "a"),
        ("submit", 1.0, 3.0, 3, None, "b"),
        ("submit", 0.0, 9.0, 4, None, None),  # no request: ignored
    ]
    assert tracing.coverage(client, server) == pytest.approx((0.5 + 0.5) / 2)


def test_recorder_patches_and_restores():
    class Target:
        def work(self, x):
            return x * 2

    rec = tracing.Recorder()
    original = Target.__dict__["work"]
    rec.patch(Target, "work", rec.timed("target.work"))
    assert Target().work(3) == 6
    rec.unpatch_all()
    assert Target.__dict__["work"] is original
    assert [s[0] for s in rec.spans] == ["target.work"]
