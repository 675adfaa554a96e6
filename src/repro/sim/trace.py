"""Schedule tracing: execution segments, job lifecycle, deadline misses.

The scheduler (:mod:`repro.sched`) and the offloading runtime
(:mod:`repro.runtime`) emit structured records into a :class:`Trace`.
Tests and the experiment drivers use the trace to verify properties that
the analytical layer only *predicts*: that no deadline is missed when the
Theorem 3 test passes, how often local compensation actually triggers,
and the per-task response-time distribution observed on the client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .timecmp import time_le

__all__ = [
    "ExecutionSegment",
    "JobRecord",
    "DeadlineMiss",
    "Trace",
]


@dataclass
class ExecutionSegment:
    """A maximal interval during which one sub-job ran on the CPU."""

    task_id: str
    job_id: int
    phase: str  # "local", "setup", "compensation", "post"
    start: float
    end: float

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass
class JobRecord:
    """Lifecycle summary of one job as observed on the client."""

    task_id: str
    job_id: int
    release: float
    absolute_deadline: float
    finish: Optional[float] = None
    offloaded: bool = False
    result_returned: bool = False  # server result arrived within R_i
    compensated: bool = False  # local compensation path executed
    benefit: float = 0.0

    @property
    def response_time(self) -> Optional[float]:
        if self.finish is None:
            return None
        return self.finish - self.release

    @property
    def met_deadline(self) -> Optional[bool]:
        if self.finish is None:
            return None
        # The one deadline-miss rule: TIME_EPS absorbs float
        # accumulation over long horizons.
        return time_le(self.finish, self.absolute_deadline)


@dataclass
class SubJobEvent:
    """Sub-job lifecycle event recorded by the processor.

    ``kind`` is ``"submitted"`` or ``"completed"``.  ``priority_key`` is
    the sub-job's EDF dispatch key, its absolute deadline — what the
    test suite's conformance validator replays scheduling decisions
    against.
    """

    time: float
    task_id: str
    job_id: int
    phase: str
    priority_key: float
    kind: str


@dataclass
class DeadlineMiss:
    """Recorded when a job's finish time exceeds its absolute deadline."""

    task_id: str
    job_id: int
    absolute_deadline: float
    finish: float

    @property
    def lateness(self) -> float:
        return self.finish - self.absolute_deadline


class Trace:
    """Accumulates schedule events during a simulation run."""

    def __init__(self) -> None:
        self.segments: List[ExecutionSegment] = []
        self.jobs: Dict[Tuple[str, int], JobRecord] = {}
        self.misses: List[DeadlineMiss] = []
        self.preemptions: int = 0
        #: Times a compensation timer fired for a task whose R_i was
        #: supposed to *guarantee* the result (§3 extension's pessimistic
        #: server bound was violated by the actual server) — a modelling
        #: assumption failure worth surfacing, not hiding.
        self.model_violations: int = 0
        #: Sub-job submission/completion events (see
        #: :class:`SubJobEvent`), the input to the test suite's EDF
        #: conformance validator.
        self.subjob_events: List[SubJobEvent] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_release(
        self, task_id: str, job_id: int, release: float, absolute_deadline: float
    ) -> JobRecord:
        record = JobRecord(
            task_id=task_id,
            job_id=job_id,
            release=release,
            absolute_deadline=absolute_deadline,
        )
        self.jobs[(task_id, job_id)] = record
        return record

    def record_segment(
        self,
        task_id: str,
        job_id: int,
        phase: str,
        start: float,
        end: float,
    ) -> None:
        if end < start:
            raise ValueError(f"segment ends before it starts: {start}..{end}")
        if end > start:  # zero-length segments carry no information
            self.segments.append(
                ExecutionSegment(task_id, job_id, phase, start, end)
            )

    def record_finish(self, task_id: str, job_id: int, finish: float) -> None:
        record = self.jobs.get((task_id, job_id))
        if record is None:
            raise KeyError(f"finish recorded for unknown job {task_id}#{job_id}")
        record.finish = finish
        if not record.met_deadline:
            self.misses.append(
                DeadlineMiss(
                    task_id=task_id,
                    job_id=job_id,
                    absolute_deadline=record.absolute_deadline,
                    finish=finish,
                )
            )

    def record_preemption(self) -> None:
        self.preemptions += 1

    def record_subjob_event(
        self,
        time: float,
        task_id: str,
        job_id: int,
        phase: str,
        priority_key: float,
        kind: str,
    ) -> None:
        if kind not in ("submitted", "completed"):
            raise ValueError(f"unknown sub-job event kind {kind!r}")
        self.subjob_events.append(
            SubJobEvent(time, task_id, job_id, phase, priority_key, kind)
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def job(self, task_id: str, job_id: int) -> JobRecord:
        return self.jobs[(task_id, job_id)]

    def jobs_of(self, task_id: str) -> List[JobRecord]:
        return [
            rec for (tid, _), rec in sorted(self.jobs.items()) if tid == task_id
        ]

    @property
    def deadline_miss_count(self) -> int:
        return len(self.misses)

    @property
    def all_deadlines_met(self) -> bool:
        return not self.misses

    def busy_time(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Total CPU time consumed inside ``[start, end]``."""
        total = 0.0
        for seg in self.segments:
            lo = max(seg.start, start)
            hi = min(seg.end, end)
            if hi > lo:
                total += hi - lo
        return total

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` the CPU was busy."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return self.busy_time(0.0, horizon) / horizon

    def compensation_rate(self, task_id: Optional[str] = None) -> float:
        """Fraction of *offloaded* jobs that fell back to compensation."""
        offloaded = [
            rec
            for rec in self.jobs.values()
            if rec.offloaded and (task_id is None or rec.task_id == task_id)
        ]
        if not offloaded:
            return 0.0
        return sum(1 for rec in offloaded if rec.compensated) / len(offloaded)

    def total_benefit(self) -> float:
        """Sum of realized per-job benefit over all finished jobs."""
        return sum(rec.benefit for rec in self.jobs.values())

    def response_times(self, task_id: str) -> List[float]:
        return [
            rec.response_time
            for rec in self.jobs_of(task_id)
            if rec.response_time is not None
        ]

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def gantt(self, width: int = 80, horizon: Optional[float] = None) -> str:
        """Render an ASCII Gantt chart, one row per task.

        Phases are drawn as: ``#`` local, ``s`` setup, ``c`` compensation,
        ``p`` post-processing.  Purely a debugging/demo aid.
        """
        if not self.segments:
            return "(empty trace)"
        end = horizon or max(seg.end for seg in self.segments)
        if end <= 0:
            return "(empty trace)"
        glyphs = {"local": "#", "setup": "s", "compensation": "c", "post": "p"}
        task_ids = sorted({seg.task_id for seg in self.segments})
        lines = []
        for tid in task_ids:
            row = [" "] * width
            for seg in self.segments:
                if seg.task_id != tid:
                    continue
                lo = int(seg.start / end * (width - 1))
                hi = max(lo + 1, int(seg.end / end * (width - 1)) + 1)
                for k in range(lo, min(hi, width)):
                    row[k] = glyphs.get(seg.phase, "?")
            lines.append(f"{tid:>12} |{''.join(row)}|")
        lines.append(f"{'':>12}  0{'':{width - 10}}{end:.3f}s")
        return "\n".join(lines)
