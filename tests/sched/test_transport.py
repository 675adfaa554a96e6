"""Unit tests for the test/stub transports."""

import numpy as np
import pytest

from repro.core.benefit import BenefitFunction, BenefitPoint
from repro.core.task import OffloadableTask, TaskSet
from repro.sched.offload_scheduler import OffloadingScheduler
from repro.sched.transport import (
    DistributionTransport,
    FixedLatencyTransport,
    NeverRespondsTransport,
    OffloadRequest,
    RoutingTransport,
)
from repro.sim.engine import Simulator


def _request(sim):
    task = OffloadableTask(
        task_id="o", wcet=0.1, period=1.0,
        setup_time=0.02, compensation_time=0.1,
        benefit=BenefitFunction(
            [BenefitPoint(0.0, 0.0), BenefitPoint(0.3, 1.0)]
        ),
    )
    return OffloadRequest(
        task=task, job_id=0, submitted_at=sim.now,
        response_budget=0.3, level_response_time=0.3,
    )


class TestFixedLatency:
    def test_result_arrives_after_latency(self, sim):
        transport = FixedLatencyTransport(sim, latency=0.25)
        arrivals = []
        transport.submit(_request(sim), arrivals.append)
        sim.run_until(1.0)
        assert arrivals == [0.25]
        assert transport.submitted == 1

    def test_negative_latency_rejected(self, sim):
        with pytest.raises(ValueError):
            FixedLatencyTransport(sim, latency=-1.0)


class TestDistribution:
    def test_sampler_drives_latency(self, sim):
        transport = DistributionTransport(sim, latency_sampler=lambda: 0.4)
        arrivals = []
        transport.submit(_request(sim), arrivals.append)
        sim.run_until(1.0)
        assert arrivals == [pytest.approx(0.4)]

    def test_negative_sample_rejected(self, sim):
        transport = DistributionTransport(sim, latency_sampler=lambda: -0.1)
        with pytest.raises(ValueError):
            transport.submit(_request(sim), lambda t: None)

    def test_loss_probability_drops_results(self, sim):
        transport = DistributionTransport(
            sim,
            latency_sampler=lambda: 0.01,
            loss_probability=1.0,
            rng=np.random.default_rng(0),
        )
        arrivals = []
        for _ in range(5):
            transport.submit(_request(sim), arrivals.append)
        sim.run_until(1.0)
        assert arrivals == []
        assert transport.lost == 5

    def test_invalid_loss_probability(self, sim):
        with pytest.raises(ValueError):
            DistributionTransport(
                sim, latency_sampler=lambda: 0.1, loss_probability=1.5
            )


class TestNeverResponds:
    def test_counts_but_never_calls_back(self, sim):
        transport = NeverRespondsTransport()
        arrivals = []
        transport.submit(_request(sim), arrivals.append)
        sim.run_until(100.0)
        assert arrivals == []
        assert transport.submitted == 1


def _routed_task():
    return OffloadableTask(
        task_id="m", wcet=0.2, period=1.0,
        setup_time=0.02, compensation_time=0.2,
        benefit=BenefitFunction([BenefitPoint(0.0, 1.0)]),
    )


class TestRoutingTransport:
    def test_routes_to_assigned_server(self, sim):
        fast = FixedLatencyTransport(sim, latency=0.01)
        slow = FixedLatencyTransport(sim, latency=0.5)
        routing = RoutingTransport(
            routes={"m": "edge"},
            transports={"edge": fast, "cloud": slow},
        )
        tasks = TaskSet([_routed_task()])
        scheduler = OffloadingScheduler(
            sim, tasks, response_times={"m": 0.1}, transport=routing,
        )
        trace = scheduler.run(2.5)
        assert fast.submitted > 0
        assert slow.submitted == 0
        assert trace.all_deadlines_met

    def test_unknown_server_in_routes_rejected(self):
        with pytest.raises(ValueError, match="unknown servers"):
            RoutingTransport(routes={"m": "mars"}, transports={})

    def test_unrouted_task_rejected_at_submit(self, sim):
        routing = RoutingTransport(routes={}, transports={})
        tasks = TaskSet([_routed_task()])
        scheduler = OffloadingScheduler(
            sim, tasks, response_times={"m": 0.1}, transport=routing,
        )
        scheduler.start(1.0)
        with pytest.raises(ValueError, match="no route"):
            sim.run_until(1.0)
