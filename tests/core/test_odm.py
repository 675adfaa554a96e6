"""Unit tests for the Offloading Decision Manager and its MCKP reduction."""

import numpy as np
import pytest

from repro.core.benefit import BenefitFunction, BenefitPoint
from repro.core.odm import (
    DEFAULT_SERVER,
    OffloadingDecisionManager,
    build_mckp,
)
from repro.core.schedulability import theorem3_test
from repro.core.task import OffloadableTask, Task, TaskSet
from repro.runtime.health import local_only_tasks
from repro.workloads.generator import paper_simulation_task_set


class TestBuildMckp:
    def test_one_class_per_task_capacity_one(self, small_task_set):
        instance = build_mckp(small_task_set)
        assert instance.num_classes == 2
        assert instance.capacity == 1.0
        assert {c.class_id for c in instance.classes} == {"off1", "loc1"}

    def test_local_item_always_first(self, small_task_set):
        instance = build_mckp(small_task_set)
        for cls in instance.classes:
            assert cls.items[0].tag == 0.0

    def test_local_item_weight_is_utilization(self, small_task_set):
        instance = build_mckp(small_task_set)
        cls = instance.class_by_id("off1")
        task = small_task_set["off1"]
        assert cls.items[0].weight == pytest.approx(task.utilization)
        assert cls.items[0].value == pytest.approx(
            task.benefit.local_benefit * task.weight
        )

    def test_offload_item_weight_matches_paper(self, small_task_set):
        instance = build_mckp(small_task_set)
        cls = instance.class_by_id("off1")
        task = small_task_set["off1"]
        for item in cls.items[1:]:
            r = item.tag
            expected = (task.setup_time + task.compensation_time) / (
                task.deadline - r
            )
            assert item.weight == pytest.approx(expected)

    def test_plain_task_gets_single_zero_value_item(self, small_task_set):
        cls = build_mckp(small_task_set).class_by_id("loc1")
        assert len(cls.items) == 1
        assert cls.items[0].value == 0.0

    def test_infeasible_points_filtered(self):
        """Points with r >= D or C1+C2 > D-r can never be selected."""
        benefit = BenefitFunction(
            [
                BenefitPoint(0.0, 0.0),
                BenefitPoint(0.5, 1.0),  # feasible
                BenefitPoint(0.95, 2.0),  # C1+C2=0.12 > 1-0.95
                BenefitPoint(1.5, 3.0),  # r >= D
            ]
        )
        task = OffloadableTask(
            task_id="o", wcet=0.1, period=1.0,
            setup_time=0.02, compensation_time=0.1, benefit=benefit,
        )
        cls = build_mckp(TaskSet([task])).class_by_id("o")
        assert [item.tag for item in cls.items] == [0.0, 0.5]

    def test_weight_scales_values_not_weights(self):
        benefit = BenefitFunction(
            [BenefitPoint(0.0, 1.0), BenefitPoint(0.3, 2.0)]
        )
        task = OffloadableTask(
            task_id="o", wcet=0.1, period=1.0, weight=3.0,
            setup_time=0.02, compensation_time=0.1, benefit=benefit,
        )
        cls = build_mckp(TaskSet([task])).class_by_id("o")
        assert cls.items[0].value == pytest.approx(3.0)
        assert cls.items[1].value == pytest.approx(6.0)
        assert cls.items[1].weight == pytest.approx(0.12 / 0.7)

    def test_level_overrides_in_weights(self):
        benefit = BenefitFunction(
            [
                BenefitPoint(0.0, 0.0),
                BenefitPoint(0.3, 1.0, setup_time=0.05,
                             compensation_time=0.25),
            ]
        )
        task = OffloadableTask(
            task_id="o", wcet=0.1, period=1.0,
            setup_time=0.02, compensation_time=0.1, benefit=benefit,
        )
        cls = build_mckp(TaskSet([task])).class_by_id("o")
        assert cls.items[1].weight == pytest.approx((0.05 + 0.25) / 0.7)


class TestDecisionManager:
    @pytest.mark.parametrize("solver", ["dp", "heu_oe", "branch_bound",
                                        "brute_force"])
    def test_every_solver_produces_feasible_decision(
        self, small_task_set, solver
    ):
        decision = OffloadingDecisionManager(solver=solver).decide(
            small_task_set
        )
        assert decision.schedulability.feasible
        check = theorem3_test(small_task_set, decision.assignments())
        assert check.feasible

    def test_decision_beats_or_matches_all_local(self, small_task_set):
        decision = OffloadingDecisionManager("dp").decide(small_task_set)
        all_local = sum(
            t.benefit.local_benefit * t.weight
            for t in small_task_set.offloadable_tasks
        )
        assert decision.expected_benefit >= all_local - 1e-9

    def test_offloads_when_budget_allows(self, small_task_set):
        """With U=0.2 total there is plenty of budget: the single
        offloadable task must be offloaded at its best feasible point."""
        decision = OffloadingDecisionManager("dp").decide(small_task_set)
        assert decision.response_time_of("off1") == pytest.approx(0.30)
        assert decision.response_time_of("loc1") == 0.0
        assert decision.offloaded_task_ids == ("off1",)
        assert decision.local_task_ids == ("loc1",)

    def test_stays_local_when_budget_tight(self, offload_task):
        tasks = TaskSet([offload_task, Task("hog", 0.88, 1.0)])
        decision = OffloadingDecisionManager("dp").decide(tasks)
        # offloading off1 at any point costs >= 0.12/0.9 = 0.133;
        # 0.88 + 0.133 > 1, so only local (0.1) fits
        assert decision.response_time_of("off1") == 0.0

    def test_rejects_overutilized_baseline(self):
        tasks = TaskSet([Task("a", 0.7, 1.0), Task("b", 0.5, 1.0)])
        with pytest.raises(ValueError, match="exceeds 1"):
            OffloadingDecisionManager("dp").decide(tasks)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            OffloadingDecisionManager("nope")

    def test_single_server_is_the_one_node_topology(self, small_task_set):
        decision = OffloadingDecisionManager("dp").decide(small_task_set)
        assert decision.placements == {
            "off1": (DEFAULT_SERVER, pytest.approx(0.30)),
            "loc1": (None, 0.0),
        }
        assert decision.routes == {"off1": DEFAULT_SERVER}
        assert decision.pruned_servers == ()

    def test_open_breaker_is_the_local_only_reduction(self):
        tasks = paper_simulation_task_set(
            np.random.default_rng(3), num_tasks=12
        )
        manager = OffloadingDecisionManager("dp")
        breaker = manager.health.breaker(DEFAULT_SERVER)
        breaker.record_window(0, successes=0, failures=breaker.min_samples)
        degraded = manager.decide(tasks)
        local = OffloadingDecisionManager("dp").decide(
            local_only_tasks(tasks)
        )
        assert degraded.pruned_servers == (DEFAULT_SERVER,)
        assert degraded.degraded
        assert degraded.placements == local.placements
        assert all(r == 0.0 for r in degraded.response_times.values())
        assert degraded.expected_benefit == local.expected_benefit
        assert degraded.total_demand_rate == local.total_demand_rate

    def test_custom_callable_solver(self, small_task_set):
        from repro.knapsack import solve_heu_oe

        decision = OffloadingDecisionManager(solver=solve_heu_oe).decide(
            small_task_set
        )
        assert decision.solver == "solve_heu_oe"
        assert decision.schedulability.feasible

    def test_dp_matches_brute_force_on_paper_workload(self):
        rng = np.random.default_rng(3)
        tasks = paper_simulation_task_set(rng, num_tasks=5)
        dp = OffloadingDecisionManager("dp").decide(tasks)
        exact = OffloadingDecisionManager("brute_force").decide(tasks)
        assert dp.expected_benefit == pytest.approx(
            exact.expected_benefit, rel=1e-3
        )

    def test_decision_reproducible(self, small_task_set):
        d1 = OffloadingDecisionManager("dp").decide(small_task_set)
        d2 = OffloadingDecisionManager("dp").decide(small_task_set)
        assert dict(d1.response_times) == dict(d2.response_times)
