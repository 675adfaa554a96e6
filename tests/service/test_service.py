"""ODMService end-to-end: admission, verification, backpressure,
forced degradation, breaker-driven routing, clean shutdown."""

import asyncio
import time
import tracemalloc

import numpy as np
import pytest

from repro.core.schedulability import OffloadAssignment, theorem3_test
from repro.service import (
    AdmissionRequest,
    BatchPolicy,
    DegradationLevel,
    ODMService,
)
from repro.workloads.generator import random_offloading_task_set


def run(coro):
    return asyncio.run(coro)


def make_request(request_id="r1", seed=1, utilization=0.5, servers=None):
    tasks = random_offloading_task_set(
        np.random.default_rng(seed),
        num_tasks=4,
        total_utilization=utilization,
    )
    return AdmissionRequest(
        request_id=request_id,
        tasks=tasks,
        server_estimates=dict(servers or {"edge": 1.0, "cloud": 1.1}),
    )


def small_service(**kwargs):
    kwargs.setdefault(
        "batch_policy",
        BatchPolicy(max_batch=8, max_wait=0.001, queue_capacity=32),
    )
    return ODMService(**kwargs)


def test_submit_requires_start():
    service = small_service()

    async def scenario():
        with pytest.raises(RuntimeError):
            await service.submit(make_request())

    run(scenario())


def test_admission_is_theorem3_verified():
    async def scenario():
        async with small_service() as service:
            request = make_request()
            response = await service.submit(request)
        assert response.admitted
        assert response.degradation == "exact"
        assert response.solver == "dp"
        assert set(response.placements) == {
            t.task_id for t in request.tasks
        }
        assignments = [
            OffloadAssignment(tid, r)
            for tid, (_s, r) in response.placements.items()
            if r > 0
        ]
        check = theorem3_test(request.tasks, assignments)
        assert check.feasible
        assert response.total_demand_rate == pytest.approx(
            check.total_demand_rate
        )
        assert response.latency > 0
        assert response.batch_size >= 1

    run(scenario())


def test_concurrent_submissions_coalesce_into_batches():
    async def scenario():
        async with small_service() as service:
            requests = [
                make_request(f"r{i}", seed=i % 3) for i in range(8)
            ]
            responses = await asyncio.gather(
                *(service.submit(r) for r in requests)
            )
        assert all(r.admitted for r in responses)
        assert max(r.batch_size for r in responses) >= 2
        stats = service.stats()
        assert stats["requests"] == 8
        assert stats["batches"] < 8
        assert stats["cache"]["hits"] + stats["cache"]["misses"] >= 1

    run(scenario())


def test_backpressure_sheds_when_queue_is_full():
    async def scenario():
        service = small_service(
            batch_policy=BatchPolicy(
                max_batch=1, max_wait=0.0, queue_capacity=2
            ),
        )
        async with service:
            original = service.shard_solver.solve_batch

            def slow(entries):
                time.sleep(0.25)
                return original(entries)

            service.shard_solver.solve_batch = slow
            first = asyncio.create_task(
                service.submit(make_request("head"))
            )
            await asyncio.sleep(0.05)  # head enters the slow solve
            rest = await asyncio.gather(
                *(
                    service.submit(make_request(f"r{i}"))
                    for i in range(4)
                )
            )
            head = await first
        assert head.admitted
        statuses = sorted(r.status for r in rest)
        assert statuses.count("shed") == 2  # queue held the other two
        assert statuses.count("admitted") == 2
        shed = [r for r in rest if r.status == "shed"]
        assert all(r.placements == {} for r in shed)

    run(scenario())


def test_only_batches_with_a_miss_hop_and_only_from_the_miss_on(
    monkeypatch,
):
    """Exact hits are answered on the event loop: an all-hit batch
    never calls ``asyncio.to_thread``, and a batch whose third entry
    misses hops once, with only the entries from that miss on."""
    real_to_thread = asyncio.to_thread
    hops = []

    def no_hop(*args, **kwargs):
        raise AssertionError("an all-hit batch hopped")

    async def counted_hop(func, entries):
        hops.append(len(entries))
        return await real_to_thread(func, entries)

    async def scenario():
        service = small_service(
            batch_policy=BatchPolicy(
                max_batch=8, max_wait=0.05, queue_capacity=32
            ),
        )
        async with service:
            await asyncio.gather(
                *(service.submit(make_request(f"w{i}", seed=i))
                  for i in range(3))
            )
            before = service.stats()
            monkeypatch.setattr(asyncio, "to_thread", no_hop)
            hits = await asyncio.gather(
                *(service.submit(make_request(f"h{i}", seed=i % 3))
                  for i in range(6))
            )
            monkeypatch.setattr(asyncio, "to_thread", counted_hop)
            mixed = await asyncio.gather(
                *(service.submit(make_request(f"m{i}", seed=seed))
                  for i, seed in enumerate((0, 1, 9, 2)))
            )
        return before, hits, mixed, service.stats()

    before, hits, mixed, after = run(scenario())
    assert all(r.admitted for r in hits + mixed)
    assert {r.batch_size for r in mixed} == {4}  # one batch of four
    assert hops == [2]  # the miss and the hit after it
    assert before["cache"]["misses"] == 3
    assert after["cache"]["hits"] == before["cache"]["hits"] + 6 + 3
    assert after["hopped_batches"] == before["hopped_batches"] + 1
    assert after["loop_answers"] == before["loop_answers"] + 6 + 2


def test_forced_degradation_levels():
    async def scenario():
        async with small_service() as service:
            # distinct request ids: a reused id would be answered by the
            # idempotent dedup cache instead of the forced rung
            exact = await service.submit(make_request("level-exact"))

            service.force_level(DegradationLevel.HEURISTIC)
            heuristic = await service.submit(make_request("level-heu"))

            service.force_level(DegradationLevel.LOCAL_ONLY)
            local = await service.submit(make_request("level-local"))

            service.force_level(None)
            back = await service.submit(make_request("level-back"))
        assert exact.degradation == "exact" and exact.solver == "dp"
        assert heuristic.degradation == "heuristic"
        assert heuristic.solver == "heu_oe"
        assert local.degradation == "local_only"
        assert local.solver == "none"
        assert back.degradation == "exact"
        # degradation never flips a feasible set into a rejection here
        assert exact.admitted and heuristic.admitted and local.admitted
        # local-only serves everything at the local point
        assert all(r == 0.0 for _s, r in local.placements.values())
        assert local.allowed_servers == {}
        # heuristic may lose benefit but never beats the exact optimum
        assert (
            heuristic.expected_benefit
            <= exact.expected_benefit + 1e-9
        )

    run(scenario())


def test_open_breaker_removes_server_from_routing():
    async def scenario():
        service = small_service(
            breaker_kwargs={"min_samples": 3, "cooldown_windows": 1},
        )
        async with service:
            # fresh ids per phase: a reused id would hit the dedup cache
            before = await service.submit(
                make_request("brk-before", servers={"edge": 1.0})
            )

            for _ in range(5):
                service.record_outcome("edge", False, 1.0)
            states = service.close_health_window()
            assert states["edge"] == "open"
            assert service.breaker_state("edge") == "open"

            during = await service.submit(
                make_request("brk-during", servers={"edge": 1.0})
            )

            # cooldown: open -> half_open, then a good probe recloses
            service.close_health_window()
            assert service.breaker_state("edge") == "half_open"
            for _ in range(5):
                service.record_outcome("edge", True, 2.0)
            states = service.close_health_window()
            assert states["edge"] == "closed"

            after = await service.submit(
                make_request("brk-after", servers={"edge": 1.0})
            )

        # with the only server broken, the request fell back to the
        # local-only direct path (still a verified admission)
        assert before.allowed_servers == {"edge": 1.0}
        assert during.allowed_servers == {}
        assert during.degradation == "local_only"
        assert after.allowed_servers == {"edge": 1.0}
        assert after.degradation == "exact"

    run(scenario())


def test_stop_with_drain_answers_everything():
    async def scenario():
        service = small_service()
        await service.start()
        futures = [
            asyncio.create_task(service.submit(make_request(f"r{i}")))
            for i in range(6)
        ]
        await asyncio.sleep(0)  # let them enqueue
        await service.stop(drain=True)
        responses = await asyncio.gather(*futures)
        assert all(r.status in ("admitted", "rejected") for r in responses)
        assert not service.started

    run(scenario())


def test_stats_snapshot_shape():
    async def scenario():
        async with small_service() as service:
            await service.submit(make_request())
            return service.stats()

    stats = run(scenario())
    for key in (
        "requests", "admitted", "rejected", "shed", "batches",
        "queue_depth", "degradation_level", "batch_size_mean",
        "solve_latency_p50", "solve_latency_p99", "breakers", "cache",
    ):
        assert key in stats
    assert stats["requests"] == 1
    assert stats["admitted"] == 1
    assert stats["degradation_level"] == "exact"


def test_infeasible_set_is_rejected_not_errored():
    async def scenario():
        async with small_service() as service:
            # utilization far above 1: nothing can make this schedulable
            request = make_request(seed=3, utilization=3.0)
            return await service.submit(request)

    response = run(scenario())
    assert response.status == "rejected"
    assert response.placements == {}

    run_report = response.to_dict()
    assert run_report["status"] == "rejected"


def test_outcome_memory_does_not_grow_with_outcomes():
    """Per-server health keeps this window's two counts, not a history
    of outcomes — also for ``outcome`` ops without ``time``, which
    never advance the outcome clock."""
    service = small_service()
    for _ in range(1_000):
        service.record_outcome("gpu", True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(100_000):
            service.record_outcome("gpu", i % 4 != 0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 4_096, f"{grown} bytes retained by 100k outcomes"
    # a 25% failure rate stays under the default trip threshold
    assert service.close_health_window() == {"gpu": "closed"}
    assert service.close_health_window() == {"gpu": "closed"}
