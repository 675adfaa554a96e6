"""Unit tests for job objects and the EDF ready queue."""

import pytest

from repro.core.task import Task
from repro.sched.jobs import Job, SubJob
from repro.sched.ready_queue import EDFReadyQueue


def _subjob(deadline, phase="local", remaining=0.1):
    task = Task("t", wcet=0.5, period=10.0)
    job = Job(task=task, job_id=0, release=0.0, absolute_deadline=deadline)
    return SubJob(
        job=job,
        phase=phase,
        wcet=remaining,
        remaining=remaining,
        absolute_deadline=deadline,
        release=0.0,
    )


class TestSubJob:
    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            _subjob(1.0, phase="warmup")

    def test_negative_remaining_rejected(self):
        with pytest.raises(ValueError):
            _subjob(1.0, remaining=-0.1)

    def test_edf_key_orders_by_deadline(self):
        early, late = _subjob(1.0), _subjob(2.0)
        assert early.edf_key < late.edf_key

    def test_edf_key_fifo_on_equal_deadline(self):
        first, second = _subjob(1.0), _subjob(1.0)
        assert first.edf_key < second.edf_key

    def test_task_id_passthrough(self):
        assert _subjob(1.0).task_id == "t"


class TestEDFReadyQueue:
    def test_pop_returns_earliest_deadline(self):
        q = EDFReadyQueue()
        a, b, c = _subjob(3.0), _subjob(1.0), _subjob(2.0)
        for sj in (a, b, c):
            q.push(sj)
        assert q.pop() is b
        assert q.pop() is c
        assert q.pop() is a

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EDFReadyQueue().pop()

    def test_peek_does_not_remove(self):
        q = EDFReadyQueue()
        sj = _subjob(1.0)
        q.push(sj)
        assert q.peek() is sj
        assert len(q) == 1

    def test_peek_empty_returns_none(self):
        assert EDFReadyQueue().peek() is None

    def test_len_and_bool(self):
        q = EDFReadyQueue()
        assert not q
        q.push(_subjob(1.0))
        assert q
        assert len(q) == 1

    def test_drain_returns_edf_order(self):
        q = EDFReadyQueue()
        deadlines = [5.0, 1.0, 3.0, 2.0]
        for d in deadlines:
            q.push(_subjob(d))
        drained = q.drain()
        assert [sj.absolute_deadline for sj in drained] == sorted(deadlines)
        assert not q

    def test_remove_excludes_subjob_from_pop(self):
        q = EDFReadyQueue()
        a, b, c = _subjob(1.0), _subjob(2.0), _subjob(3.0)
        for sj in (a, b, c):
            q.push(sj)
        assert q.remove(b) is True
        assert len(q) == 2
        assert q.pop() is a
        assert q.pop() is c
        assert not q

    def test_remove_head_updates_peek(self):
        q = EDFReadyQueue()
        a, b = _subjob(1.0), _subjob(2.0)
        q.push(a)
        q.push(b)
        assert q.remove(a)
        assert q.peek() is b

    def test_remove_unknown_returns_false(self):
        q = EDFReadyQueue()
        q.push(_subjob(1.0))
        assert q.remove(_subjob(2.0)) is False
        assert len(q) == 1

    def test_removed_subjob_can_be_requeued(self):
        q = EDFReadyQueue()
        sj = _subjob(1.0)
        q.push(sj)
        q.remove(sj)
        q.push(sj)  # lazy deletion must not shadow the re-push
        assert q.pop() is sj
        assert not q

    def test_duplicate_push_rejected(self):
        q = EDFReadyQueue()
        sj = _subjob(1.0)
        q.push(sj)
        with pytest.raises(ValueError):
            q.push(sj)

    def test_drain_skips_removed(self):
        q = EDFReadyQueue()
        subjobs = [_subjob(d) for d in (4.0, 1.0, 3.0, 2.0)]
        for sj in subjobs:
            q.push(sj)
        q.remove(subjobs[2])  # deadline 3.0
        drained = q.drain()
        assert [sj.absolute_deadline for sj in drained] == [1.0, 2.0, 4.0]
