"""Integration tests for the end-to-end OffloadingSystem facade."""

import pytest

from repro.runtime.system import OffloadingSystem
from repro.vision.tasks import table1_task_set


class TestOffloadingSystem:
    def test_unknown_scenario_rejected(self, table1_tasks):
        with pytest.raises(ValueError, match="unknown scenario"):
            OffloadingSystem(table1_tasks, scenario="weekend")

    def test_decision_cached(self, table1_tasks):
        system = OffloadingSystem(table1_tasks, scenario="idle")
        assert system.decide() is system.decide()

    def test_idle_run_end_to_end(self, table1_tasks):
        system = OffloadingSystem(table1_tasks, scenario="idle", seed=1)
        report = system.run(horizon=10.0)
        assert report.all_deadlines_met
        assert report.jobs_completed > 0
        assert report.offloaded_jobs > 0
        assert report.return_rate > 0.5  # idle server mostly succeeds
        assert report.realized_benefit > 0

    def test_busy_run_compensates_but_never_misses(self, table1_tasks):
        system = OffloadingSystem(table1_tasks, scenario="busy", seed=1)
        report = system.run(horizon=10.0)
        assert report.all_deadlines_met  # the hard guarantee
        assert report.return_rate < 0.5  # saturated server mostly late
        assert report.compensated_jobs > 0

    def test_idle_beats_busy_in_realized_benefit(self, table1_tasks):
        idle = OffloadingSystem(table1_tasks, scenario="idle", seed=2).run(
            10.0
        )
        busy = OffloadingSystem(
            table1_task_set(), scenario="busy", seed=2
        ).run(10.0)
        assert idle.realized_benefit > busy.realized_benefit

    def test_same_seed_reproducible(self, table1_tasks):
        a = OffloadingSystem(table1_tasks, scenario="not_busy", seed=7).run(
            5.0
        )
        b = OffloadingSystem(
            table1_task_set(), scenario="not_busy", seed=7
        ).run(5.0)
        assert a.realized_benefit == b.realized_benefit
        assert a.returned_jobs == b.returned_jobs

    def test_different_seeds_vary(self, table1_tasks):
        results = {
            OffloadingSystem(
                table1_task_set(), scenario="not_busy", seed=s
            ).run(5.0).realized_benefit
            for s in range(4)
        }
        assert len(results) > 1

    def test_report_summary_renders(self, table1_tasks):
        report = OffloadingSystem(table1_tasks, scenario="idle").run(5.0)
        text = report.summary()
        assert "realized benefit" in text
        assert "deadline misses: 0" in text

    def test_heuristic_solver_also_runs(self, table1_tasks):
        report = OffloadingSystem(
            table1_tasks, scenario="idle", solver="heu_oe", seed=1
        ).run(5.0)
        assert report.all_deadlines_met
        assert report.decision.solver == "heu_oe"
