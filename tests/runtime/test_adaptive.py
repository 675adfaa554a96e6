"""Tests for the adaptive re-estimation runtime."""

from dataclasses import replace

import pytest

from repro.core.benefit import scale_response_times
from repro.core.task import TaskSet
from repro.runtime.adaptive import AdaptiveOffloadingSystem
from repro.vision.tasks import table1_task_set


def _scaled_beliefs(tasks: TaskSet, factor: float) -> TaskSet:
    """Scale every benefit point's response time by ``factor``."""
    return TaskSet(
        replace(t, benefit=scale_response_times(t.benefit, factor))
        for t in tasks
    )


class TestValidation:
    def test_bad_scenario(self, table1_tasks):
        with pytest.raises(ValueError):
            AdaptiveOffloadingSystem(table1_tasks, scenario="nope")

    def test_bad_alpha(self, table1_tasks):
        with pytest.raises(ValueError):
            AdaptiveOffloadingSystem(table1_tasks, alpha=0.0)

    def test_bad_max_step(self, table1_tasks):
        with pytest.raises(ValueError):
            AdaptiveOffloadingSystem(table1_tasks, max_step=1.0)

    def test_bad_window(self, table1_tasks):
        with pytest.raises(ValueError):
            AdaptiveOffloadingSystem(table1_tasks, window=0.0)

    def test_bad_num_windows(self, table1_tasks):
        system = AdaptiveOffloadingSystem(table1_tasks)
        with pytest.raises(ValueError):
            system.run(num_windows=0)


class TestAdaptation:
    @pytest.fixture(scope="class")
    def optimistic_run(self):
        """Beliefs 2.5x too fast on a moderately loaded server."""
        beliefs = _scaled_beliefs(table1_task_set(), 1 / 2.5)
        system = AdaptiveOffloadingSystem(
            beliefs, scenario="not_busy", seed=3, window=10.0
        )
        return system.run(num_windows=5)

    def test_never_misses_deadlines(self, optimistic_run):
        """Adaptation is about benefit; safety holds in every window."""
        assert all(w.deadline_misses == 0 for w in optimistic_run.windows)

    def test_return_rate_recovers(self, optimistic_run):
        first = optimistic_run.windows[0]
        last = optimistic_run.windows[-1]
        assert last.return_rate > first.return_rate
        assert last.compensation_rate < first.compensation_rate

    def test_corrections_grow_beliefs_upward(self, optimistic_run):
        """First window must push under-estimated response times up."""
        factors = optimistic_run.windows[0].correction_factors
        assert factors, "no task was corrected in window 0"
        assert all(f >= 1.0 for f in factors.values())

    def test_benefit_improves(self, optimistic_run):
        series = optimistic_run.series("realized_benefit")
        assert series[-1] > series[0]

    def test_correct_beliefs_stay_stable(self):
        """With accurate beliefs on an idle server, corrections hover
        near 1 and the return rate stays high from window 0."""
        system = AdaptiveOffloadingSystem(
            table1_task_set(), scenario="idle", seed=5, window=10.0
        )
        report = system.run(num_windows=3)
        assert report.windows[0].return_rate > 0.7
        for w in report.windows:
            for factor in w.correction_factors.values():
                assert 0.5 < factor < 1.5

    def test_window_records_complete(self, optimistic_run):
        for index, w in enumerate(optimistic_run.windows):
            assert w.window == index
            assert w.expected_benefit > 0
            assert set(w.response_times)  # decisions recorded
