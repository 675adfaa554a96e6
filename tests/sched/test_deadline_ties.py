"""Adversarial regression tests for float-dust deadline ties.

The bug class: two deadlines that are *analytically* equal but computed
through different arithmetic paths (``0.1 + 0.2`` vs ``0.3``) differ by
a few ULPs.  Keyed on raw floats, EDF would order them by accumulated
rounding error — spuriously preempting a running job, or flipping
dispatch order between platforms.  The fix quantizes every ordering key
onto the :data:`~repro.sim.timecmp.TIME_EPS` grid (a transitive total
order, unlike pairwise epsilon comparison) and breaks ties FIFO.
"""

import heapq
import math

import pytest

from repro.core.task import Task, TaskSet
from repro.observability.tracebus import TraceBus
from repro.sched.jobs import Job, SubJob
from repro.sched.offload_scheduler import OffloadingScheduler
from repro.sched.ready_queue import EDFReadyQueue
from repro.sched.uniprocessor import Uniprocessor
from repro.sim.engine import Simulator
from repro.sim.timecmp import (
    TIME_EPS,
    quantize_time,
    time_eq,
    time_le,
    time_lt,
)

#: The canonical dust pair: 0.1 + 0.2 == 0.30000000000000004 != 0.3.
DUSTY = 0.1 + 0.2
CLEAN = 0.3


def _subjob(deadline, remaining=0.2, task_id="t", job_id=0):
    task = Task(task_id, wcet=max(remaining, 1e-9), period=100.0)
    job = Job(task=task, job_id=job_id, release=0.0,
              absolute_deadline=deadline)
    return SubJob(
        job=job, phase="local", wcet=remaining, remaining=remaining,
        absolute_deadline=deadline, release=0.0,
    )


class TestQuantize:
    def test_dust_pair_collapses_to_one_grid_point(self):
        assert DUSTY != CLEAN  # the premise of the whole bug class
        assert quantize_time(DUSTY) == quantize_time(CLEAN)

    def test_comparators_agree_with_the_grid(self):
        assert time_eq(DUSTY, CLEAN)
        assert not time_lt(DUSTY, CLEAN)
        assert not time_lt(CLEAN, DUSTY)
        assert time_le(DUSTY, CLEAN) and time_le(CLEAN, DUSTY)

    def test_distinct_times_stay_distinct(self):
        assert quantize_time(0.3) < quantize_time(0.3 + 1e-6)
        assert time_lt(0.3, 0.3 + 1e-6)

    def test_infinity_passes_through(self):
        assert quantize_time(float("inf")) == float("inf")
        assert time_lt(1e12, float("inf"))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            quantize_time(float("nan"))

    def test_grid_is_a_total_order(self):
        """Pairwise-epsilon comparison is non-transitive; the grid key
        must be safe as a heap/sort key."""
        times = [CLEAN + k * (TIME_EPS / 3) for k in range(12)]
        keys = [quantize_time(t) for t in times]
        assert keys == sorted(keys)  # monotone in the raw value
        heap = list(zip(keys, times))
        heapq.heapify(heap)
        popped = [heapq.heappop(heap)[0] for _ in range(len(heap))]
        assert popped == sorted(popped)


class TestReadyQueueTies:
    def test_dust_tie_breaks_fifo(self):
        """The dust-later deadline submitted first must pop first."""
        queue = EDFReadyQueue()
        first = _subjob(DUSTY, task_id="first")
        second = _subjob(CLEAN, task_id="second")
        # Raw-float keys would pop `second` (0.3 < 0.30000000000000004).
        queue.push(first)
        queue.push(second)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_genuinely_earlier_deadline_still_wins(self):
        queue = EDFReadyQueue()
        late = _subjob(CLEAN, task_id="late")
        early = _subjob(CLEAN - 1e-3, task_id="early")
        queue.push(late)
        queue.push(early)
        assert queue.pop() is early


class TestNoSpuriousPreemption:
    def test_dust_earlier_newcomer_does_not_preempt(self):
        """A running job with deadline 0.1+0.2 must not be preempted by
        a newcomer whose deadline is the dust-*smaller* 0.3."""
        sim = Simulator()
        cpu = Uniprocessor(sim)
        order = []
        running = _subjob(DUSTY, remaining=0.4, task_id="running")
        running.on_complete = lambda sj, t: order.append(sj.task_id)
        cpu.submit(running)
        sim.run_until(0.1)
        newcomer = _subjob(CLEAN, remaining=0.1, task_id="newcomer",
                           job_id=1)
        newcomer.on_complete = lambda sj, t: order.append(sj.task_id)
        cpu.submit(newcomer)
        sim.run_until(2.0)
        assert order == ["running", "newcomer"]
        assert cpu.trace.preemptions == 0

    def test_clearly_earlier_newcomer_still_preempts(self):
        sim = Simulator()
        cpu = Uniprocessor(sim)
        running = _subjob(10.0, remaining=0.4, task_id="running")
        cpu.submit(running)
        sim.run_until(0.1)
        cpu.submit(_subjob(1.0, remaining=0.1, task_id="urgent", job_id=1))
        sim.run_until(2.0)
        assert cpu.trace.preemptions == 1


class TestEngineClockMonotone:
    def test_dust_ordered_events_never_move_the_clock_backwards(self):
        """Quantized ordering can fire a raw-dust-earlier event after a
        dust-later one; the clock must clamp, not step back."""
        sim = Simulator()
        seen = []
        sim.schedule_at(DUSTY, lambda ev: seen.append(sim.now))
        sim.schedule_at(CLEAN, lambda ev: seen.append(sim.now))
        sim.run_until(1.0)
        assert len(seen) == 2
        assert seen[1] >= seen[0]  # monotone observable clock

    def test_fifo_among_dust_equal_events(self):
        sim = Simulator()
        order = []
        sim.schedule_at(DUSTY, lambda ev: order.append("first"))
        sim.schedule_at(CLEAN, lambda ev: order.append("second"))
        sim.run_until(1.0)
        assert order == ["first", "second"]


class _FixedDuration:
    """Execution-time model: every sub-job runs exactly ``duration``."""

    def __init__(self, duration):
        self.duration_s = duration

    def duration(self, task, phase, response_time, job_id):
        return self.duration_s


class TestDeadlineMissRule:
    """One rule decides a miss: ``time_le(finish, deadline)``.  The
    trace's miss list, the job record and the ``job.finish`` bus event
    must apply it identically at the epsilon boundary."""

    @staticmethod
    def _finish_at(finish):
        bus = TraceBus()
        sim = Simulator(bus=bus)
        tasks = TaskSet([Task("t", wcet=0.5, period=2.0, deadline=1.0)])
        trace = OffloadingScheduler(
            sim, tasks, exec_model=_FixedDuration(finish)
        ).run(1.5)
        (event,) = bus.events("job.finish")
        record = trace.job("t", 0)
        assert record.finish == finish
        return trace, record, event.data["met_deadline"]

    def test_finish_at_deadline_plus_eps_is_met(self):
        trace, record, bus_met = self._finish_at(1.0 + TIME_EPS)
        assert record.met_deadline is True
        assert bus_met is True
        assert trace.misses == []

    def test_next_float_above_is_a_miss(self):
        trace, record, bus_met = self._finish_at(
            math.nextafter(1.0 + TIME_EPS, math.inf)
        )
        assert record.met_deadline is False
        assert bus_met is False
        assert [m.job_id for m in trace.misses] == [0]
