"""Health beacons, seq-merged gossip state, replica gossip agents."""

import asyncio

import numpy as np
import pytest

from repro.faults import ReplicaProcess
from repro.fleet import (
    CacheReplicator,
    GossipAgent,
    GossipState,
    HealthBeacon,
    worst_breaker_state,
)
from repro.service import AdmissionRequest, BatchPolicy, ODMService
from repro.workloads.generator import random_offloading_task_set


def make_replica(replica_id):
    return ReplicaProcess(
        replica_id,
        lambda: ODMService(
            replica_id=replica_id,
            batch_policy=BatchPolicy(
                max_batch=4, max_wait=0.001, queue_capacity=16
            ),
            breaker_kwargs={"min_samples": 2, "cooldown_windows": 1},
        ),
    )


class TestHealthBeacon:
    def test_round_trip(self):
        beacon = HealthBeacon(
            replica_id="replica-0",
            seq=7,
            queue_depth=8,
            queue_capacity=16,
            level="heuristic",
            breakers={"flaky": "open"},
            shed=3.0,
        )
        assert beacon.occupancy == pytest.approx(0.5)
        assert HealthBeacon.from_dict(beacon.to_dict()) == beacon

    def test_from_service_beacon(self):
        async def scenario():
            async with ODMService() as service:
                return service.beacon()

        record = asyncio.run(scenario())
        beacon = HealthBeacon.from_dict(record)
        assert beacon.replica_id == "replica-0"
        assert beacon.seq >= 1
        assert beacon.level == "exact"

    def test_gossiped_open_is_not_echoed_back(self):
        """A breaker tripped by gossip is not re-advertised, so a stale
        echo cannot re-trip the probing breaker it came from."""

        async def scenario():
            kwargs = {"min_samples": 2, "cooldown_windows": 1}
            async with ODMService(
                replica_id="a", breaker_kwargs=kwargs
            ) as a, ODMService(
                replica_id="b", breaker_kwargs=kwargs
            ) as b:
                for _ in range(3):
                    a.record_outcome("flaky", False)
                assert a.close_health_window()["flaky"] == "open"
                b.absorb_beacon(a.beacon())
                echo = b.beacon()
                assert a.close_health_window()["flaky"] == "half_open"
                a.absorb_beacon(echo)
                return b.breaker_state("flaky"), echo, a.breaker_state("flaky")

        b_state, echo, a_state = asyncio.run(scenario())
        assert b_state == "open"
        assert "flaky" not in echo["breakers"]
        assert a_state == "half_open"

    def test_malformed_breakers_rejected(self):
        with pytest.raises(ValueError, match="breakers"):
            HealthBeacon.from_dict({"breakers": "open"})

    def test_worst_breaker_state(self):
        assert worst_breaker_state([]) == "closed"
        assert worst_breaker_state(["closed", "half_open"]) == "half_open"
        assert (
            worst_breaker_state(["half_open", "open", "closed"]) == "open"
        )


class TestGossipState:
    def test_seq_merge_keeps_the_freshest(self):
        state = GossipState()
        assert state.absorb(HealthBeacon("r0", seq=2, queue_depth=5))
        assert not state.absorb(HealthBeacon("r0", seq=1, queue_depth=0))
        assert state.absorb(HealthBeacon("r0", seq=3, queue_depth=9))
        assert state.beacons["r0"].queue_depth == 9
        assert state.absorbed == 2
        assert state.stale == 1

    def test_merged_breakers_take_the_worst(self):
        state = GossipState()
        state.absorb(
            HealthBeacon("r0", seq=1, breakers={"flaky": "open"})
        )
        state.absorb(
            HealthBeacon(
                "r1",
                seq=1,
                breakers={"flaky": "closed", "edge": "half_open"},
            )
        )
        assert state.merged_breakers() == {
            "flaky": "open",
            "edge": "half_open",
        }


class TestGossipAgent:
    def test_breaker_propagates_between_replicas(self):
        async def scenario():
            a, b = make_replica("replica-a"), make_replica("replica-b")
            await a.start()
            await b.start()
            try:
                # replica-a pays the local evidence for a dead server
                for _ in range(4):
                    a.service.record_outcome("flaky", False, 1.0)
                assert (
                    a.service.close_health_window()["flaky"] == "open"
                )
                agent = GossipAgent(
                    b.service,
                    peers={
                        "replica-a": a.address,
                        "replica-b": b.address,  # self: filtered out
                    },
                )
                assert agent.peers == {"replica-a": a.address}
                reached = await agent.run_round()
                # replica-b now refuses the server without ever having
                # offloaded to it — remote evidence tripped its breaker
                return (
                    reached,
                    b.service.breaker_state("flaky"),
                    agent.stats(),
                )
            finally:
                await a.stop()
                await b.stop()

        reached, state, stats = asyncio.run(scenario())
        assert reached == 1
        assert state == "open"
        assert stats["exchanges"] == 1
        assert stats["unreachable"] == 0

    def test_round_pulls_a_warm_peer_cache(self):
        async def scenario():
            a, b = make_replica("replica-a"), make_replica("replica-b")
            await a.start()
            await b.start()
            try:
                # replica-a serves traffic, so its cache is warm
                for seed in range(3):
                    tasks = random_offloading_task_set(
                        np.random.default_rng(seed),
                        num_tasks=3,
                        total_utilization=0.5,
                    )
                    await a.service.submit(
                        AdmissionRequest(
                            request_id=f"warm-{seed}",
                            tasks=tasks,
                            server_estimates={"edge": 1.0},
                        )
                    )
                assert len(a.service.cache) > 0
                assert len(b.service.cache) == 0
                agent = GossipAgent(
                    b.service,
                    peers={"replica-a": a.address},
                    replicator=CacheReplicator(b.service.cache),
                )
                await agent.run_round()
                return agent.stats(), len(b.service.cache)
            finally:
                await a.stop()
                await b.stop()

        stats, cached = asyncio.run(scenario())
        assert stats["unreachable"] == 0
        assert stats["exchanges"] == 1
        assert stats["cache_tier"]["sync_rounds"] == 1
        assert stats["cache_tier"]["entries_absorbed"] > 0
        assert cached == stats["cache_tier"]["entries_absorbed"]

    def test_dead_peer_never_stalls_a_round(self):
        async def scenario():
            a = make_replica("replica-a")
            await a.start()
            dead_port = a.port  # reuse after stop: connection refused
            await a.stop()
            b = make_replica("replica-b")
            await b.start()
            try:
                agent = GossipAgent(
                    b.service,
                    peers={"replica-a": ("127.0.0.1", dead_port)},
                    timeout=0.5,
                )
                reached = await agent.run_round()
                return reached, agent.unreachable
            finally:
                await b.stop()

        reached, unreachable = asyncio.run(scenario())
        assert reached == 0
        assert unreachable == 1

    def test_background_loop_start_stop(self):
        async def scenario():
            a, b = make_replica("replica-a"), make_replica("replica-b")
            await a.start()
            await b.start()
            try:
                agent = GossipAgent(
                    b.service,
                    peers={"replica-a": a.address},
                    interval=0.01,
                )
                await agent.start()
                assert agent.running
                await asyncio.sleep(0.08)
                await agent.stop()
                assert not agent.running
                return agent.rounds
            finally:
                await a.stop()
                await b.stop()

        rounds = asyncio.run(scenario())
        assert rounds >= 2

    def test_validation(self):
        service = ODMService()
        with pytest.raises(ValueError, match="interval"):
            GossipAgent(service, peers={}, interval=0.0)
        with pytest.raises(ValueError, match="timeout"):
            GossipAgent(service, peers={}, timeout=0.0)
