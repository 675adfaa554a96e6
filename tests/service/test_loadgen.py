"""Loadgen traffic shaping: churn, batch submission, determinism.

The churn knob exists to feed the delta solver near-miss instances,
so these tests pin its safety property (only task *weights* move —
MCKP item values, never weights, so admissibility is untouched) and
that the whole loadgen run stays deterministic and audit-clean through
both the per-request and the vectorized ``submit_batch`` paths.
"""

import asyncio

import pytest

from repro.service import (
    BatchPolicy,
    LoadGenConfig,
    ODMService,
    generate_bursts,
    run_loadgen,
)


def config(**overrides):
    base = dict(seed=3, bursts=6, mean_burst_size=3.0, unique_sets=3,
                num_tasks=4)
    base.update(overrides)
    return LoadGenConfig(**base)


class TestChurnedBursts:
    def test_churn_rate_is_validated(self):
        with pytest.raises(ValueError):
            config(churn_rate=-0.1)
        with pytest.raises(ValueError):
            config(churn_rate=1.5)

    def test_zero_churn_draws_only_pool_sets(self):
        bursts = generate_bursts(config(churn_rate=0.0))
        signatures = {
            tuple(task.task_id for task in request.tasks)
            for burst in bursts
            for request in burst.requests
        }
        task_sets = {
            id(request.tasks)
            for burst in bursts
            for request in burst.requests
        }
        # a 3-set pool serves every request object-identically
        assert len(task_sets) <= 3
        assert len(signatures) <= 3

    def test_churn_perturbs_only_one_weight(self):
        plain = generate_bursts(config(churn_rate=0.0))
        churned = generate_bursts(config(churn_rate=1.0))
        # pool sets all reuse the same task ids, so find each churned
        # request's ancestor as the pool set it differs least from
        pool = []
        for burst in plain:
            for request in burst.requests:
                if all(request.tasks is not seen for seen in pool):
                    pool.append(request.tasks)
        churned_requests = [
            request for burst in churned for request in burst.requests
        ]
        assert churned_requests
        for request in churned_requests:
            diffs = min(
                (
                    [
                        (old, new)
                        for old, new in zip(ancestor, request.tasks)
                        if old != new
                    ]
                    for ancestor in pool
                    if len(ancestor) == len(request.tasks)
                ),
                key=len,
            )
            assert len(diffs) <= 1
            for old, new in diffs:
                # only the benefit weight moved, and only by the
                # documented 0.8..1.2 factor
                assert new.wcet == old.wcet
                assert new.period == old.period
                assert new.benefit == old.benefit
                assert 0.8 * old.weight <= new.weight <= 1.2 * old.weight

    def test_same_seed_same_trace(self):
        first = generate_bursts(config(churn_rate=0.5))
        second = generate_bursts(config(churn_rate=0.5))
        assert [
            [request.to_dict() for request in burst.requests]
            for burst in first
        ] == [
            [request.to_dict() for request in burst.requests]
            for burst in second
        ]


@pytest.mark.parametrize("batched", [False, True])
def test_in_process_run_is_audit_clean(batched):
    """Churned traffic through the real service — per-request and
    vectorized submission must agree with the serial reference."""

    async def scenario():
        service = ODMService(
            batch_policy=BatchPolicy(
                max_batch=8, max_wait=0.001, queue_capacity=64
            ),
        )
        async with service:

            async def submit_batch(requests):
                return list(
                    await asyncio.gather(
                        *(service.submit(r) for r in requests)
                    )
                )

            return await run_loadgen(
                service.submit,
                config(churn_rate=0.4),
                record_outcome=service.record_outcome,
                close_window=service.close_health_window,
                stats=service.stats,
                resolution=2_000,
                submit_batch=submit_batch if batched else None,
            )

    report = asyncio.run(scenario())
    assert report.ok
    assert report.anomaly_count == 0
    assert report.requests == report.admitted + report.rejected
    assert report.stats is not None
    assert "delta" in report.stats


# ----------------------------------------------------------------------
# open-loop (arrival-rate-driven) traffic
# ----------------------------------------------------------------------
from types import SimpleNamespace

from repro.service import (
    OpenLoopConfig,
    generate_open_loop,
    run_open_loop,
)


def ol_config(**overrides):
    base = dict(
        seed=7,
        rate=10_000.0,
        requests=24,
        dispatch_scale=0.01,
        unique_sets=3,
        num_tasks=4,
    )
    base.update(overrides)
    return OpenLoopConfig(**base)


class TestOpenLoopTrace:
    def test_config_is_validated(self):
        with pytest.raises(ValueError):
            ol_config(rate=0.0)
        with pytest.raises(ValueError):
            ol_config(rate_multiplier=-1.0)
        with pytest.raises(ValueError):
            ol_config(dispatch_scale=0.0)
        with pytest.raises(ValueError):
            ol_config(requests=0)
        with pytest.raises(ValueError):
            ol_config(churn_rate=1.5)

    def test_trace_is_replayable(self):
        first = generate_open_loop(ol_config(churn_rate=0.3))
        again = generate_open_loop(ol_config(churn_rate=0.3))
        assert [offset for offset, _ in first] == [
            offset for offset, _ in again
        ]
        for (_, a), (_, b) in zip(first, again):
            assert a.request_id == b.request_id
            assert a.server_estimates == b.server_estimates
            assert [t.task_id for t in a.tasks] == [
                t.task_id for t in b.tasks
            ]
        different = generate_open_loop(ol_config(seed=8))
        assert [o for o, _ in different] != [o for o, _ in first]

    def test_offsets_are_increasing_and_dilated(self):
        trace = generate_open_loop(ol_config())
        offsets = [offset for offset, _ in trace]
        assert offsets == sorted(offsets)
        assert all(offset > 0 for offset in offsets)

    def test_rate_multiplier_compresses_the_same_gap_sequence(self):
        """x4 load is the *same* seeded process played 4x faster."""
        base = generate_open_loop(ol_config())
        fast = generate_open_loop(ol_config(rate_multiplier=4.0))
        for (slow_offset, a), (fast_offset, b) in zip(base, fast):
            assert fast_offset == pytest.approx(slow_offset / 4.0)
            assert a.request_id == b.request_id

    def test_explicit_pool_feeds_every_request(self):
        donor = generate_open_loop(ol_config())[0][1].tasks
        trace = generate_open_loop(ol_config(), pool=[donor])
        assert {id(request.tasks) for _, request in trace} == {id(donor)}
        with pytest.raises(ValueError):
            generate_open_loop(ol_config(), pool=[])


class TestOpenLoopRun:
    def test_in_process_run_is_audit_clean(self):
        async def scenario():
            service = ODMService(
                batch_policy=BatchPolicy(
                    max_batch=8, max_wait=0.0005, queue_capacity=64
                ),
                resolution=20_000,
            )
            async with service:
                return await run_open_loop(
                    service.submit,
                    ol_config(churn_rate=0.3),
                    resolution=20_000,
                    stats=service.stats,
                )

        report = asyncio.run(scenario())
        assert report.ok and report.anomaly_count == 0
        assert report.completed == report.requests == 24
        assert report.errors == 0
        assert len(report.latencies) == report.admitted + report.rejected
        assert report.throughput > 0
        assert report.stats["cache"]["hits"] + report.stats["cache"][
            "misses"
        ] > 0
        record = report.to_dict()
        assert record["latency"]["p99"] >= record["latency"]["p50"] >= 0

    def test_submit_errors_pay_their_slot(self):
        async def scenario():
            calls = [0]

            async def flaky_submit(request):
                calls[0] += 1
                if calls[0] % 3 == 0:
                    raise ConnectionError("router gave up")
                return SimpleNamespace(status="shed", degradation="shed")

            return await run_open_loop(
                flaky_submit, ol_config(requests=9, audit=False)
            )

        report = asyncio.run(scenario())
        assert report.requests == 9
        assert report.errors == 3
        assert report.shed == 6
        assert report.completed == 6
        assert report.latencies == []  # shed = no decision, no latency


# ----------------------------------------------------------------------
# the response tally every driver shares
# ----------------------------------------------------------------------
from repro.core.benefit import BenefitFunction, BenefitPoint
from repro.core.task import OffloadableTask, TaskSet
from repro.service import AdmissionRequest, AdmissionResponse
from repro.service.loadgen import MAX_LISTED_ANOMALIES, ResponseTally


def _overloaded_request(request_id="over"):
    """Two tasks whose local and compensation demand are 0.6 each: no
    placement passes Theorem 3."""
    benefit = BenefitFunction([BenefitPoint(0.0, 1.0), BenefitPoint(0.2, 2.0)])
    tasks = TaskSet([
        OffloadableTask(
            task_id=f"t{i}", wcet=0.6, period=1.0, setup_time=0.05,
            compensation_time=0.6, post_time=0.02, benefit=benefit,
        )
        for i in range(2)
    ])
    return AdmissionRequest(request_id, tasks, {"edge": 1.0})


def _answer(request, status, degradation="exact", **fields):
    return AdmissionResponse(
        request_id=request.request_id,
        status=status,
        degradation=degradation,
        allowed_servers=dict(request.server_estimates),
        **fields,
    )


class TestResponseTally:
    def test_counts_statuses_and_rungs(self):
        request = _overloaded_request()
        tally = ResponseTally()
        tally.record(request, _answer(request, "rejected"), 0.1, 2_000)
        tally.record(
            request, _answer(request, "rejected", "heuristic"), 0.2, 2_000
        )
        tally.record(request, _answer(request, "shed", "shed"), 0.3, 2_000)
        assert (tally.requests, tally.admitted, tally.rejected, tally.shed) \
            == (3, 0, 2, 1)
        assert tally.rungs_seen == {"exact": 1, "heuristic": 1, "shed": 1}
        assert tally.ok

    def test_shed_adds_no_latency(self):
        request = _overloaded_request()
        tally = ResponseTally()
        tally.record(request, _answer(request, "shed", "shed"), 0.5, 2_000)
        tally.record(request, _answer(request, "rejected"), 0.25, 2_000)
        assert tally.latencies == [0.25]

    def test_admission_failing_theorem3_is_counted_and_listed(self):
        request = _overloaded_request()
        admitted = _answer(
            request, "admitted",
            placements={"t0": (None, 0.0), "t1": (None, 0.0)},
        )
        tally = ResponseTally()
        tally.record(request, admitted, 0.1, 2_000)
        assert not tally.ok
        assert tally.anomaly_count == len(tally.anomalies) >= 1
        assert any("Theorem 3 fails" in a for a in tally.anomalies)

    def test_lists_at_most_the_cap_but_counts_all(self):
        tally = ResponseTally()
        for index in range(MAX_LISTED_ANOMALIES):
            request = _overloaded_request(f"over-{index}")
            admitted = _answer(
                request, "admitted",
                placements={"t0": (None, 0.0), "t1": (None, 0.0)},
            )
            tally.record(request, admitted, 0.1, 2_000)
        assert tally.anomaly_count > MAX_LISTED_ANOMALIES
        assert len(tally.anomalies) == MAX_LISTED_ANOMALIES
        assert tally.to_dict()["anomaly_count"] == tally.anomaly_count

    def test_audit_off_counts_without_auditing(self):
        request = _overloaded_request()
        admitted = _answer(
            request, "admitted",
            placements={"t0": (None, 0.0), "t1": (None, 0.0)},
        )
        tally = ResponseTally()
        tally.record(request, admitted, 0.1, 2_000, audit=False)
        assert tally.admitted == 1 and tally.anomaly_count == 0
