"""A preemptive EDF uniprocessor running on the discrete-event engine.

This models the embedded system's CPU of the paper's architecture: a
single preemptive processor that always executes the ready sub-job with
the earliest absolute deadline (§5.1: "the scheduling policy will
strictly follow the original earliest-deadline-first scheduling").

The processor is policy-free — deadlines are assigned by whoever creates
the sub-jobs (the split-deadline scheduler, the naive baseline, …).  It records every execution segment and
preemption into a :class:`~repro.sim.trace.Trace`.
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Simulator
from ..sim.events import PRIORITY_DISPATCH, Event
from ..sim.trace import Trace
from .jobs import SubJob
from .ready_queue import EDFReadyQueue

__all__ = ["Uniprocessor"]


class Uniprocessor:
    """Preemptive EDF executor for :class:`~repro.sched.jobs.SubJob`.

    Parameters
    ----------
    sim:
        The simulation engine driving time.
    trace:
        Destination for execution segments and preemption counts.

    A sub-job's ``remaining`` work is simulation time: the paper's model
    has no speed scaling and charges no context-switch cost.
    """

    def __init__(self, sim: Simulator, trace: Optional[Trace] = None) -> None:
        self.sim = sim
        self.trace = trace if trace is not None else Trace()
        #: structured event sink, shared with the engine (no-op unless
        #: the run was built with observability enabled)
        self.bus = sim.bus
        self.ready = EDFReadyQueue()
        self._current: Optional[SubJob] = None
        self._segment_start: float = 0.0
        self._completion_event: Optional[Event] = None

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    @property
    def current(self) -> Optional[SubJob]:
        """The sub-job executing right now, if any."""
        return self._current

    @property
    def busy(self) -> bool:
        return self._current is not None

    def submit(self, subjob: SubJob) -> None:
        """Make ``subjob`` ready; preempts the running sub-job if EDF says so."""
        if subjob.completed:
            raise ValueError(f"{subjob!r} is already completed")
        self.trace.record_subjob_event(
            self.sim.now,
            subjob.task_id,
            subjob.job.job_id,
            subjob.phase,
            subjob.absolute_deadline,
            "submitted",
        )
        bus = self.bus
        if bus.enabled:
            bus.emit(
                "subjob.submit",
                self.sim.now,
                task=subjob.task_id,
                job=subjob.job.job_id,
                phase=subjob.phase,
                deadline=subjob.absolute_deadline,
                priority_key=subjob.absolute_deadline,
            )
        if subjob.remaining == 0:
            # Zero-length work completes instantly (e.g. C_{i,3} = 0).
            self._complete(subjob)
            return
        self.ready.push(subjob)
        self._reschedule()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _reschedule(self) -> None:
        """Ensure the EDF-highest-priority ready sub-job is running."""
        head = self.ready.peek()
        if head is None:
            return
        if self._current is None:
            self._start(self.ready.pop())
            return
        if head.edf_key < self._current.edf_key:
            self._preempt()
            self._start(self.ready.pop())

    def _start(self, subjob: SubJob) -> None:
        self._current = subjob
        self._segment_start = self.sim.now
        bus = self.bus
        if bus.enabled:
            bus.emit(
                "subjob.start",
                self.sim.now,
                task=subjob.task_id,
                job=subjob.job.job_id,
                phase=subjob.phase,
            )
        self._completion_event = self.sim.schedule(
            subjob.remaining,
            self._on_completion,
            priority=PRIORITY_DISPATCH,
            payload=subjob,
            name=f"complete:{subjob.task_id}#{subjob.job.job_id}/{subjob.phase}",
        )

    def _preempt(self) -> None:
        """Stop the running sub-job, bank its progress, requeue it."""
        assert self._current is not None
        now = self.sim.now
        executed = now - self._segment_start
        self._current.remaining = max(0.0, self._current.remaining - executed)
        self.trace.record_segment(
            self._current.task_id,
            self._current.job.job_id,
            self._current.phase,
            self._segment_start,
            now,
        )
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        self.trace.record_preemption()
        bus = self.bus
        if bus.enabled:
            bus.emit(
                "subjob.preempt",
                now,
                task=self._current.task_id,
                job=self._current.job.job_id,
                phase=self._current.phase,
                remaining=self._current.remaining,
            )
        self.ready.push(self._current)
        self._current = None

    def _on_completion(self, event: Event) -> None:
        subjob: SubJob = event.payload
        if subjob is not self._current:  # stale event after a preemption
            return
        now = self.sim.now
        self.trace.record_segment(
            subjob.task_id,
            subjob.job.job_id,
            subjob.phase,
            self._segment_start,
            now,
        )
        subjob.remaining = 0.0
        self._current = None
        self._completion_event = None
        self._complete(subjob)
        self._reschedule()

    def _complete(self, subjob: SubJob) -> None:
        subjob.completed = True
        self.trace.record_subjob_event(
            self.sim.now,
            subjob.task_id,
            subjob.job.job_id,
            subjob.phase,
            subjob.absolute_deadline,
            "completed",
        )
        bus = self.bus
        if bus.enabled:
            bus.emit(
                "subjob.finish",
                self.sim.now,
                task=subjob.task_id,
                job=subjob.job.job_id,
                phase=subjob.phase,
            )
        if subjob.on_complete is not None:
            subjob.on_complete(subjob, self.sim.now)
