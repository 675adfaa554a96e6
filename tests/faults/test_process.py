"""Replica supervision + fleet chaos schedule + link chaos."""

import asyncio

import numpy as np
import pytest

from repro.faults import (
    ChaosAction,
    FaultEvent,
    FaultSchedule,
    FleetChaosSchedule,
    LinkChaos,
    LinkLoss,
    ReplicaProcess,
)
from repro.service import (
    AdmissionRequest,
    BatchPolicy,
    ConnectionLost,
    ODMService,
    ServiceClient,
)
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


def make_replica(replica_id="replica-0"):
    return ReplicaProcess(
        replica_id,
        lambda: ODMService(
            replica_id=replica_id,
            batch_policy=BatchPolicy(
                max_batch=8, max_wait=0.001, queue_capacity=32
            ),
        ),
    )


class TestReplicaProcess:
    def test_start_serve_stop(self):
        async def scenario():
            proc = make_replica()
            await proc.start()
            assert proc.running
            assert proc.port > 0
            async with ServiceClient(port=proc.port) as client:
                response = await client.submit(make_request())
            await proc.stop()
            assert not proc.running
            return response

        response = asyncio.run(scenario())
        assert response.admitted
        assert response.replica == "replica-0"

    def test_kill_resets_inflight_clients_fast(self):
        async def scenario():
            proc = make_replica()
            await proc.start()
            client = await ServiceClient(port=proc.port).connect()
            # park a request, then kill mid-flight
            proc.service.force_level(None)
            original = proc.service.shard_solver.solve_batch

            def slow(entries):
                import time

                time.sleep(0.5)
                return original(entries)

            proc.service.shard_solver.solve_batch = slow
            submit = asyncio.create_task(
                client.submit(make_request("inflight"))
            )
            await asyncio.sleep(0.05)
            await proc.kill()
            with pytest.raises(ConnectionLost):
                # fail-fast: bounded by the kill, not by a timeout
                await asyncio.wait_for(submit, timeout=5.0)
            await client.close()
            return proc

        proc = asyncio.run(scenario())
        assert proc.kills == 1
        assert not proc.running

    def test_restart_rebinds_the_same_port(self):
        async def scenario():
            proc = make_replica()
            await proc.start()
            port = proc.port
            first_service = proc.service
            await proc.kill()
            await proc.restart()
            assert proc.port == port
            # restart amnesia: a fresh service instance, zero state
            assert proc.service is not first_service
            async with ServiceClient(port=port) as client:
                response = await client.submit(make_request("after"))
                stats = await client.stats()
            await proc.stop()
            return response, stats, proc

        response, stats, proc = asyncio.run(scenario())
        assert response.admitted
        assert stats["requests"] == 1  # old counters are gone
        assert proc.starts == 2
        assert proc.kills == 1

    def test_invalid_replica_id_rejected(self):
        with pytest.raises(ValueError, match="replica_id"):
            ReplicaProcess("", lambda: ODMService())


class TestFleetChaosSchedule:
    def test_actions_pop_in_time_order(self):
        schedule = FleetChaosSchedule(
            [
                ChaosAction(2.0, "restart", "replica-1"),
                ChaosAction(1.0, "kill", "replica-1"),
            ]
        )
        assert len(schedule) == 2
        assert schedule.due(0.5) == []
        due = schedule.due(1.0)
        assert [a.action for a in due] == ["kill"]
        assert schedule.remaining == 1
        assert [a.action for a in schedule.due(10.0)] == ["restart"]
        assert schedule.due(20.0) == []
        schedule.reset()
        assert schedule.remaining == 2

    def test_kill_restart_builder_validates_ordering(self):
        schedule = FleetChaosSchedule.kill_restart(
            "replica-1", kill_at=1.0, restart_at=2.0
        )
        assert [a.action for a in schedule] == ["kill", "restart"]
        with pytest.raises(ValueError, match="restart_at"):
            FleetChaosSchedule.kill_restart(
                "replica-1", kill_at=2.0, restart_at=1.0
            )

    def test_invalid_actions_rejected(self):
        with pytest.raises(ValueError, match="chaos action"):
            ChaosAction(1.0, "reboot", "replica-1")
        with pytest.raises(ValueError, match="target"):
            ChaosAction(1.0, "kill", "")
        with pytest.raises(ValueError, match="time"):
            ChaosAction(-1.0, "kill", "replica-1")


class TestLinkChaos:
    def make(self, events, now=0.0, seed=0):
        clock = {"now": now}
        chaos = LinkChaos(
            {"replica-1": FaultSchedule(events)},
            rng=np.random.default_rng(seed),
            clock=lambda: clock["now"],
        )
        return chaos, clock

    def test_blackhole_raises_link_loss(self):
        chaos, clock = self.make(
            [FaultEvent("partition", start=1.0, duration=1.0)]
        )

        async def scenario():
            await chaos.impose("replica-1")  # before the window: clean
            clock["now"] = 1.5
            with pytest.raises(LinkLoss):
                await chaos.impose("replica-1")
            await chaos.impose("replica-2")  # unknown link: no schedule

        asyncio.run(scenario())
        assert chaos.snapshot()["replica-1"]["losses"] == 1

    def test_certain_drop_is_a_loss(self):
        chaos, clock = self.make(
            [FaultEvent("drop", start=0.0, duration=5.0, magnitude=1.0)]
        )

        async def scenario():
            with pytest.raises(LinkLoss):
                await chaos.impose("replica-1")

        asyncio.run(scenario())

    def test_latency_spike_delays_but_delivers(self):
        chaos, clock = self.make(
            [
                FaultEvent(
                    "latency_spike",
                    start=0.0,
                    duration=5.0,
                    magnitude=10.0,  # capped by max_delay
                )
            ]
        )

        async def scenario():
            await chaos.impose("replica-1")

        asyncio.run(scenario())
        stats = chaos.snapshot()["replica-1"]
        assert stats["delays"] == 1
        # the real sleep is bounded, whatever the schedule says
        assert stats["delay_seconds"] <= 0.05 + 1e-9

    def test_loss_draws_are_seeded(self):
        events = [
            FaultEvent("drop", start=0.0, duration=5.0, magnitude=0.5)
        ]

        async def outcomes(seed):
            chaos, _clock = self.make(events, seed=seed)
            results = []
            for _ in range(20):
                try:
                    await chaos.impose("replica-1")
                    results.append(True)
                except LinkLoss:
                    results.append(False)
            return results

        first = asyncio.run(outcomes(3))
        second = asyncio.run(outcomes(3))
        other = asyncio.run(outcomes(4))
        assert first == second
        assert first != other
