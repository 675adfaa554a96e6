"""Unit tests for the preemptive EDF uniprocessor."""

import pytest

from repro.core.task import Task
from repro.sched.jobs import Job, SubJob
from repro.sched.uniprocessor import Uniprocessor
from repro.sim.engine import Simulator
from repro.sim.trace import Trace


def _subjob(deadline, remaining, task_id="t", job_id=0, on_complete=None):
    task = Task(task_id, wcet=max(remaining, 1e-9) if remaining else 1e-9,
                period=100.0)
    job = Job(task=task, job_id=job_id, release=0.0,
              absolute_deadline=deadline)
    return SubJob(
        job=job, phase="local", wcet=remaining, remaining=remaining,
        absolute_deadline=deadline, release=0.0, on_complete=on_complete,
    )


class TestBasicExecution:
    def test_single_subjob_runs_to_completion(self, sim):
        done = []
        cpu = Uniprocessor(sim)
        cpu.submit(_subjob(10.0, 0.5, on_complete=lambda sj, t: done.append(t)))
        sim.run_until(1.0)
        assert done == [0.5]
        assert not cpu.busy

    def test_zero_length_completes_instantly(self, sim):
        done = []
        cpu = Uniprocessor(sim)
        cpu.submit(_subjob(10.0, 0.0, on_complete=lambda sj, t: done.append(t)))
        assert done == [0.0]

    def test_completed_subjob_rejected(self, sim):
        cpu = Uniprocessor(sim)
        sj = _subjob(10.0, 0.1)
        sj.completed = True
        with pytest.raises(ValueError):
            cpu.submit(sj)

    def test_sequential_execution_in_edf_order(self, sim):
        order = []
        cpu = Uniprocessor(sim)
        cpu.submit(_subjob(5.0, 0.2, task_id="late",
                           on_complete=lambda sj, t: order.append(sj.task_id)))
        cpu.submit(_subjob(1.0, 0.2, task_id="early",
                           on_complete=lambda sj, t: order.append(sj.task_id)))
        sim.run_until(1.0)
        # "late" started first (was alone), got preempted by "early"
        assert order == ["early", "late"]


class TestPreemption:
    def test_earlier_deadline_preempts(self, sim):
        trace = Trace()
        cpu = Uniprocessor(sim, trace)
        finish_times = {}

        low = _subjob(10.0, 1.0, task_id="low",
                      on_complete=lambda sj, t: finish_times.update(low=t))
        cpu.submit(low)
        # at t=0.3 a tighter sub-job arrives
        sim.schedule_at(
            0.3,
            lambda ev: cpu.submit(
                _subjob(
                    1.0, 0.2, task_id="high",
                    on_complete=lambda sj, t: finish_times.update(high=t),
                )
            ),
        )
        sim.run_until(2.0)
        assert finish_times["high"] == pytest.approx(0.5)
        assert finish_times["low"] == pytest.approx(1.2)
        assert trace.preemptions == 1

    def test_later_deadline_does_not_preempt(self, sim):
        trace = Trace()
        cpu = Uniprocessor(sim, trace)
        finish = {}
        cpu.submit(_subjob(1.0, 0.5, task_id="a",
                           on_complete=lambda sj, t: finish.update(a=t)))
        sim.schedule_at(
            0.2,
            lambda ev: cpu.submit(
                _subjob(5.0, 0.1, task_id="b",
                        on_complete=lambda sj, t: finish.update(b=t))
            ),
        )
        sim.run_until(2.0)
        assert finish["a"] == pytest.approx(0.5)
        assert finish["b"] == pytest.approx(0.6)
        assert trace.preemptions == 0

    def test_equal_deadline_does_not_preempt(self, sim):
        trace = Trace()
        cpu = Uniprocessor(sim, trace)
        finish = {}
        cpu.submit(_subjob(1.0, 0.4, task_id="a",
                           on_complete=lambda sj, t: finish.update(a=t)))
        sim.schedule_at(
            0.1,
            lambda ev: cpu.submit(
                _subjob(1.0, 0.1, task_id="b",
                        on_complete=lambda sj, t: finish.update(b=t))
            ),
        )
        sim.run_until(2.0)
        assert finish["a"] == pytest.approx(0.4)
        assert trace.preemptions == 0

    def test_remaining_time_banked_across_preemptions(self, sim):
        cpu = Uniprocessor(sim)
        finish = {}
        victim = _subjob(10.0, 1.0, task_id="victim",
                         on_complete=lambda sj, t: finish.update(victim=t))
        cpu.submit(victim)
        for k, start in enumerate((0.2, 0.6)):
            sim.schedule_at(
                start,
                lambda ev, k=k: cpu.submit(
                    _subjob(1.0 + k, 0.1, task_id=f"p{k}", job_id=k)
                ),
            )
        sim.run_until(5.0)
        # victim executed 1.0 total, interrupted twice by 0.1 each
        assert finish["victim"] == pytest.approx(1.2)


class TestTraceRecording:
    def test_segments_cover_execution(self, sim):
        trace = Trace()
        cpu = Uniprocessor(sim, trace)
        trace.record_release("t", 0, 0.0, 10.0)
        cpu.submit(_subjob(10.0, 0.5))
        sim.run_until(1.0)
        assert trace.busy_time() == pytest.approx(0.5)

    def test_preempted_execution_split_into_segments(self, sim):
        trace = Trace()
        cpu = Uniprocessor(sim, trace)
        cpu.submit(_subjob(10.0, 1.0, task_id="low"))
        sim.schedule_at(
            0.5, lambda ev: cpu.submit(_subjob(1.0, 0.2, task_id="hi"))
        )
        sim.run_until(3.0)
        low_segments = [s for s in trace.segments if s.task_id == "low"]
        assert len(low_segments) == 2
        assert sum(s.length for s in low_segments) == pytest.approx(1.0)
