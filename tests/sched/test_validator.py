"""Tests for the EDF conformance validator (and, through it, stronger
validation of every scheduler in the library)."""

import pytest

from repro.core.task import Task, TaskSet
from repro.runtime.system import OffloadingSystem
from repro.sched.offload_scheduler import OffloadingScheduler
from repro.sched.transport import NeverRespondsTransport
from repro.sim.engine import Simulator
from repro.sim.trace import Trace
from repro.vision.tasks import table1_task_set
from tests.oracles.validator import validate_schedule


class TestRealSchedulesConform:
    def test_local_edf_schedule_validates(self):
        tasks = TaskSet(
            [Task("a", 0.3, 1.0), Task("b", 0.4, 1.5), Task("c", 0.2, 0.5)]
        )
        sim = Simulator()
        trace = OffloadingScheduler(sim, tasks).run(9.0)
        assert validate_schedule(trace) == []

    def test_offloading_schedule_validates(self):
        report = OffloadingSystem(
            table1_task_set(), scenario="not_busy", seed=6
        ).run(10.0)
        assert validate_schedule(report.trace) == []

    def test_compensating_schedule_validates(self):
        tasks = table1_task_set()
        from repro.core.odm import OffloadingDecisionManager

        decision = OffloadingDecisionManager("dp").decide(tasks)
        sim = Simulator()
        trace = OffloadingScheduler(
            sim, tasks, response_times=decision.response_times,
            transport=NeverRespondsTransport(),
        ).run(10.0)
        assert validate_schedule(trace) == []


class TestViolationsDetected:
    def _base_trace(self):
        """Two sub-jobs; 'late' runs before 'early' despite a later
        deadline — a priority violation."""
        trace = Trace()
        trace.record_release("late", 0, 0.0, 5.0)
        trace.record_release("early", 0, 0.0, 1.0)
        trace.record_subjob_event(0.0, "late", 0, "local", 5.0, "submitted")
        trace.record_subjob_event(0.0, "early", 0, "local", 1.0, "submitted")
        return trace

    def test_priority_inversion_detected(self):
        trace = self._base_trace()
        trace.record_segment("late", 0, "local", 0.0, 0.5)
        trace.record_subjob_event(0.5, "late", 0, "local", 5.0, "completed")
        trace.record_segment("early", 0, "local", 0.5, 0.8)
        trace.record_subjob_event(0.8, "early", 0, "local", 1.0, "completed")
        violations = validate_schedule(trace)
        assert any(v.kind == "priority" for v in violations)

    def test_idle_while_pending_detected(self):
        trace = Trace()
        trace.record_release("a", 0, 0.0, 2.0)
        trace.record_subjob_event(0.0, "a", 0, "local", 2.0, "submitted")
        # processor inexplicably waits until t=1 to run it
        trace.record_segment("a", 0, "local", 1.0, 1.5)
        trace.record_subjob_event(1.5, "a", 0, "local", 2.0, "completed")
        violations = validate_schedule(trace)
        assert any(v.kind == "idle" for v in violations)

    def test_unsubmitted_segment_detected(self):
        trace = Trace()
        trace.record_segment("ghost", 0, "local", 0.0, 0.5)
        violations = validate_schedule(trace)
        assert any("unsubmitted" in v.detail for v in violations)

    def test_clean_sequential_trace_passes(self):
        trace = self._base_trace()
        trace.record_segment("early", 0, "local", 0.0, 0.3)
        trace.record_subjob_event(0.3, "early", 0, "local", 1.0,
                                  "completed")
        trace.record_segment("late", 0, "local", 0.3, 0.8)
        trace.record_subjob_event(0.8, "late", 0, "local", 5.0,
                                  "completed")
        assert validate_schedule(trace) == []

    def test_bad_event_kind_rejected(self):
        trace = Trace()
        with pytest.raises(ValueError):
            trace.record_subjob_event(0.0, "a", 0, "local", 1.0, "paused")
