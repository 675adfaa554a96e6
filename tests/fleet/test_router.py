"""FleetRouter: failover, timeouts, hedging, dedup, probes."""

import asyncio

import numpy as np
import pytest

from repro.faults import ReplicaProcess
from repro.fleet import (
    FleetRouter,
    FleetUnavailable,
    ReplicaSpec,
    RouterConfig,
)
from repro.service import AdmissionRequest, BatchPolicy, ODMService
from repro.workloads.generator import random_offloading_task_set


def make_request(request_id="r1", seed=1):
    tasks = random_offloading_task_set(
        np.random.default_rng(seed), num_tasks=3, total_utilization=0.5
    )
    return AdmissionRequest(
        request_id=request_id,
        tasks=tasks,
        server_estimates={"edge": 1.0},
    )


def make_replica(replica_id):
    return ReplicaProcess(
        replica_id,
        lambda: ODMService(
            replica_id=replica_id,
            batch_policy=BatchPolicy(
                max_batch=8, max_wait=0.001, queue_capacity=32
            ),
        ),
    )


async def fleet(n=2):
    procs = {}
    for i in range(n):
        proc = make_replica(f"replica-{i}")
        await proc.start()
        procs[proc.replica_id] = proc
    specs = [
        ReplicaSpec(rid, proc.host, proc.port)
        for rid, proc in sorted(procs.items())
    ]
    return procs, specs


async def stop_all(procs):
    for proc in procs.values():
        await proc.stop()


class TestRouterConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="policy"):
            RouterConfig(policy="round_robin")
        with pytest.raises(ValueError, match="max_attempts"):
            RouterConfig(max_attempts=0)
        with pytest.raises(ValueError, match="backoff"):
            RouterConfig(backoff_base=0.5, backoff_max=0.1)
        with pytest.raises(ValueError, match="jitter"):
            RouterConfig(jitter=1.5)
        with pytest.raises(ValueError, match="hedge_after"):
            RouterConfig(hedge_after=0.0)
        with pytest.raises(ValueError, match="pressure_limit"):
            RouterConfig(pressure_limit=0.0)


class TestFailover:
    def test_submit_routes_and_answers(self):
        async def scenario():
            procs, specs = await fleet(2)
            try:
                async with FleetRouter(
                    specs, RouterConfig(probe_interval=None)
                ) as router:
                    response = await router.submit(make_request())
                    return response, router.stats()
            finally:
                await stop_all(procs)

        response, stats = asyncio.run(scenario())
        assert response.admitted
        assert response.replica in ("replica-0", "replica-1")
        assert stats["requests"] == 1
        assert stats["failovers"] == 0

    def test_dead_replica_fails_over(self):
        async def scenario():
            procs, specs = await fleet(2)
            try:
                # route by hash so we can kill exactly the owner
                config = RouterConfig(
                    policy="consistent_hash", probe_interval=None
                )
                async with FleetRouter(specs, config) as router:
                    request = make_request("victim-key")
                    owner = router.pick(request.request_id)
                    await procs[owner].kill()
                    response = await router.submit(request)
                    stats = router.stats()
                    return owner, response, stats
            finally:
                await stop_all(procs)

        owner, response, stats = asyncio.run(scenario())
        assert response.admitted
        assert response.replica != owner
        assert stats["failovers"] >= 1
        assert stats["replicas"][owner]["state"] == "down"

    def test_whole_fleet_down_raises_fleet_unavailable(self):
        async def scenario():
            procs, specs = await fleet(2)
            try:
                config = RouterConfig(
                    probe_interval=None, max_attempts=2
                )
                async with FleetRouter(specs, config) as router:
                    for proc in procs.values():
                        await proc.kill()
                    with pytest.raises(FleetUnavailable):
                        await router.submit(make_request())
                    return router.stats()
            finally:
                await stop_all(procs)

        stats = asyncio.run(scenario())
        assert stats["unrouted"] == 1

    def test_straggler_times_out_and_fails_over(self):
        async def scenario():
            procs, specs = await fleet(2)
            try:
                config = RouterConfig(
                    policy="consistent_hash",
                    probe_interval=None,
                    request_timeout=0.2,
                )
                async with FleetRouter(specs, config) as router:
                    request = make_request("slow-key")
                    owner = router.pick(request.request_id)
                    original = procs[owner].service.shard_solver.solve_batch

                    def stall(entries):
                        import time

                        time.sleep(1.0)
                        return original(entries)

                    procs[owner].service.shard_solver.solve_batch = stall
                    response = await router.submit(request)
                    return owner, response, router.stats()
            finally:
                await stop_all(procs)

        owner, response, stats = asyncio.run(scenario())
        assert response.admitted
        assert response.replica != owner
        assert stats["retries"] >= 1

    def test_probe_detects_recovery(self):
        async def scenario():
            procs, specs = await fleet(2)
            try:
                config = RouterConfig(probe_interval=None)
                async with FleetRouter(specs, config) as router:
                    victim = "replica-0"
                    await procs[victim].kill()
                    await router.probe()
                    down = router.membership.status(victim).state
                    await procs[victim].restart()
                    await router.probe()
                    up = router.membership.status(victim).state
                    return down, up, router.stats()
            finally:
                await stop_all(procs)

        down, up, stats = asyncio.run(scenario())
        assert down == "down"
        assert up == "up"
        times = stats["recovery_times"]["replica-0"]
        assert len(times) == 1
        assert times[0] >= 0.0

    def test_probe_fills_gossip_view(self):
        async def scenario():
            procs, specs = await fleet(2)
            try:
                procs["replica-1"].service.record_outcome(
                    "flaky", False, 1.0
                )
                for _ in range(4):
                    procs["replica-1"].service.record_outcome(
                        "flaky", False, 1.0
                    )
                procs["replica-1"].service.close_health_window()
                async with FleetRouter(
                    specs, RouterConfig(probe_interval=None)
                ) as router:
                    await router.probe()
                    return router.stats()
            finally:
                await stop_all(procs)

        stats = asyncio.run(scenario())
        assert stats["fleet_breakers"] == {"flaky": "open"}


class TestExactlyOnce:
    def test_retried_id_is_deduplicated_by_the_replica(self):
        async def scenario():
            procs, specs = await fleet(1)
            try:
                async with FleetRouter(
                    specs, RouterConfig(probe_interval=None)
                ) as router:
                    request = make_request("same-id")
                    first = await router.submit(request)
                    second = await router.submit(request)
                    stats = procs["replica-0"].service.stats()
                    return first, second, stats, router
            finally:
                await stop_all(procs)

        first, second, stats, router = asyncio.run(scenario())
        assert first.to_dict() == second.to_dict()
        assert stats["dedup_hits"] == 1
        assert stats["admitted"] == 1  # decided exactly once
        assert router.duplicate_deliveries == 0

    def test_hedged_request_returns_one_decision(self):
        async def scenario():
            procs, specs = await fleet(2)
            try:
                config = RouterConfig(
                    policy="consistent_hash",
                    probe_interval=None,
                    hedge_after=0.05,
                    request_timeout=2.0,
                )
                async with FleetRouter(specs, config) as router:
                    request = make_request("hedged-key")
                    owner = router.pick(request.request_id)
                    original = procs[owner].service.shard_solver.solve_batch

                    def slow(entries):
                        import time

                        time.sleep(0.4)
                        return original(entries)

                    procs[owner].service.shard_solver.solve_batch = slow
                    response = await router.submit(request)
                    return owner, response, router.stats()
            finally:
                await stop_all(procs)

        owner, response, stats = asyncio.run(scenario())
        assert response.admitted
        # the hedge (on the fast replica) won the race
        assert response.replica != owner
        assert stats["hedges"] == 1
        assert stats["hedge_wins"] == 1
        assert stats["duplicate_deliveries"] == 0


class TestRoutingPolicies:
    def test_consistent_hash_is_sticky(self):
        async def scenario():
            procs, specs = await fleet(3)
            try:
                config = RouterConfig(
                    policy="consistent_hash", probe_interval=None
                )
                async with FleetRouter(specs, config) as router:
                    owners = {
                        router.pick(f"req-{i}") for i in range(50)
                    }
                    sticky = all(
                        router.pick("req-7") == router.pick("req-7")
                        for _ in range(5)
                    )
                    return owners, sticky
            finally:
                await stop_all(procs)

        owners, sticky = asyncio.run(scenario())
        assert sticky
        assert len(owners) >= 2  # keys spread over the fleet

    def test_least_loaded_avoids_pressured_replicas(self):
        async def scenario():
            procs, specs = await fleet(2)
            try:
                async with FleetRouter(
                    specs, RouterConfig(probe_interval=None)
                ) as router:
                    # replica-0 reports a nearly full queue via beacon
                    router.membership.update_beacon(
                        "replica-0",
                        {"seq": 1, "queue_depth": 31,
                         "queue_capacity": 32},
                    )
                    return [router.pick(f"req-{i}") for i in range(5)]
            finally:
                await stop_all(procs)

        picks = asyncio.run(scenario())
        assert picks == ["replica-1"] * 5
