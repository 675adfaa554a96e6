"""Tests for multi-server decisions: the topology-form MCKP and the
one decision manager routing across several servers."""

import pytest

from repro.core.benefit import BenefitFunction, BenefitPoint
from repro.core.odm import OffloadingDecisionManager, build_mckp
from repro.core.task import OffloadableTask, Task, TaskSet
from repro.sched.offload_scheduler import OffloadingScheduler
from repro.sched.transport import FixedLatencyTransport, RoutingTransport
from repro.sim.engine import Simulator


def _task(task_id="m", wcet=0.2, period=1.0):
    return OffloadableTask(
        task_id=task_id, wcet=wcet, period=period,
        setup_time=0.02, compensation_time=wcet,
        benefit=BenefitFunction([BenefitPoint(0.0, 1.0)]),
    )


def _benefits(fast_value=8.0, slow_value=5.0):
    """Two servers: 'edge' is fast (small r), 'cloud' slower but offers
    a higher top quality."""
    return {
        "edge": {
            "m": BenefitFunction(
                [BenefitPoint(0.0, 1.0), BenefitPoint(0.1, fast_value)]
            ),
        },
        "cloud": {
            "m": BenefitFunction(
                [BenefitPoint(0.0, 1.0), BenefitPoint(0.4, slow_value)]
            ),
        },
    }


class TestBuildMckp:
    def test_items_span_servers(self):
        tasks = TaskSet([_task()])
        instance = build_mckp(tasks, topology=_benefits())
        cls = instance.class_by_id("m")
        tags = {item.tag for item in cls.items}
        assert (None, 0.0) in tags
        assert ("edge", 0.1) in tags
        assert ("cloud", 0.4) in tags

    def test_task_absent_from_server_not_offered(self):
        tasks = TaskSet([_task(), _task("other")])
        benefits = _benefits()
        instance = build_mckp(tasks, topology=benefits)
        other = instance.class_by_id("other")
        assert len(other.items) == 1  # local only

    def test_plain_tasks_stay_local_only(self):
        tasks = TaskSet([Task("p", 0.1, 1.0)])
        instance = build_mckp(tasks, topology={})
        assert len(instance.class_by_id("p").items) == 1

    def test_infeasible_points_filtered(self):
        tasks = TaskSet([_task(period=0.3)])  # D=0.3 < cloud's r=0.4
        instance = build_mckp(tasks, topology=_benefits())
        tags = {item.tag for item in instance.class_by_id("m").items}
        assert ("cloud", 0.4) not in tags


class TestDecision:
    def test_prefers_better_server(self):
        """Edge offers more value at lower weight — must win."""
        tasks = TaskSet([_task()])
        decision = OffloadingDecisionManager("dp").decide(
            tasks, _benefits(fast_value=8.0, slow_value=5.0)
        )
        assert decision.server_of("m") == "edge"
        assert decision.response_times["m"] == pytest.approx(0.1)
        assert decision.routes == {"m": "edge"}

    def test_picks_slow_server_when_it_pays(self):
        tasks = TaskSet([_task()])
        decision = OffloadingDecisionManager("dp").decide(
            tasks, _benefits(fast_value=3.0, slow_value=9.0)
        )
        assert decision.server_of("m") == "cloud"

    def test_local_when_nothing_fits(self):
        # a heavy local task eats the budget (offloading "m" at any
        # server point costs more than its 0.2 local utilization)
        tasks = TaskSet([_task(), Task("hog", 0.78, 1.0)])
        decision = OffloadingDecisionManager("dp").decide(
            tasks, _benefits()
        )
        assert decision.server_of("m") is None
        assert decision.response_times["m"] == 0.0

    def test_feasibility_verified(self):
        tasks = TaskSet([_task()])
        decision = OffloadingDecisionManager("dp").decide(
            tasks, _benefits()
        )
        assert decision.schedulability.feasible

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            OffloadingDecisionManager("nope")


class TestEndToEnd:
    def test_two_servers_full_pipeline(self, sim):
        """Decide across two simulated servers, run, verify guarantee
        and that the realized benefit matches the chosen levels."""
        tasks = TaskSet(
            [_task("a", wcet=0.2), _task("b", wcet=0.25), Task("l", 0.3, 1.0)]
        )
        benefits = {
            "edge": {
                "a": BenefitFunction(
                    [BenefitPoint(0.0, 1.0), BenefitPoint(0.1, 6.0)]
                ),
                "b": BenefitFunction(
                    [BenefitPoint(0.0, 1.0), BenefitPoint(0.15, 4.0)]
                ),
            },
            "cloud": {
                "b": BenefitFunction(
                    [BenefitPoint(0.0, 1.0), BenefitPoint(0.3, 7.0)]
                ),
            },
        }
        decision = OffloadingDecisionManager("dp").decide(tasks, benefits)
        transports = {
            "edge": FixedLatencyTransport(sim, latency=0.05),
            "cloud": FixedLatencyTransport(sim, latency=0.2),
        }
        routing = RoutingTransport(decision.routes, transports)
        scheduler = OffloadingScheduler(
            sim, tasks, response_times=decision.response_times,
            transport=routing,
        )
        trace = scheduler.run(4.0)
        assert trace.all_deadlines_met
        offloaded = [r for r in trace.jobs.values() if r.offloaded]
        assert offloaded and all(r.result_returned for r in offloaded)
