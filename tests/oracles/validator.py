"""Schedule conformance validation: did the processor really run EDF?

Given a trace with sub-job lifecycle events (recorded by
:class:`~repro.sched.uniprocessor.Uniprocessor`), the validator replays
every execution segment against the reconstructed pending set and
reports violations of the two invariants a preemptive EDF scheduler
must satisfy:

* **priority conformance** — the executing sub-job always has the
  minimal dispatch key (its absolute deadline) among all pending
  sub-jobs, modulo the FIFO
  non-preemption convention for equal keys and for a lower-priority
  sub-job that was already running when an equal-key competitor
  arrived;
* **work conservation** — the processor never idles while any sub-job
  is pending.

This is a *test oracle*, not part of the runtime: the test suite runs
schedules through it to catch dispatcher regressions that deadline
checks alone would miss (a wrong-but-lucky schedule can still meet all
deadlines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.timecmp import TIME_EPS
from repro.sim.trace import Trace

__all__ = ["Violation", "validate_schedule"]


@dataclass(frozen=True)
class Violation:
    """One conformance violation found in a trace."""

    time: float
    kind: str  # "priority" or "idle"
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.kind} @ {self.time:.6f}] {self.detail}"


def validate_schedule(trace: Trace) -> List[Violation]:
    """Replay ``trace`` and return all conformance violations.

    An empty list means the schedule is a valid preemptive
    highest-priority-first schedule of the recorded sub-jobs.
    """
    violations: List[Violation] = []

    submissions: Dict[Tuple[str, int, str], Tuple[float, float]] = {}
    completions: Dict[Tuple[str, int, str], float] = {}
    for event in trace.subjob_events:
        key = (event.task_id, event.job_id, event.phase)
        if event.kind == "submitted":
            submissions[key] = (event.time, event.priority_key)
        else:
            completions[key] = event.time

    def pending_at(t: float, exclude: Tuple[str, int, str]) -> List[
        Tuple[Tuple[str, int, str], float, float]
    ]:
        """Sub-jobs submitted at or before ``t`` and not yet completed.

        Returns ``(key, submit_time, priority_key)`` triples.
        """
        out = []
        for key, (submit, priority) in submissions.items():
            if key == exclude:
                continue
            if submit > t + TIME_EPS:
                continue
            done = completions.get(key)
            if done is not None and done <= t + TIME_EPS:
                continue
            out.append((key, submit, priority))
        return out

    # --- priority conformance per execution segment -------------------
    for seg in trace.segments:
        key = (seg.task_id, seg.job_id, seg.phase)
        if key not in submissions:
            violations.append(
                Violation(
                    seg.start, "priority",
                    f"segment for unsubmitted sub-job {key}",
                )
            )
            continue
        _, running_priority = submissions[key]
        # check at the segment start (dispatch instant)
        for other_key, other_submit, other_priority in pending_at(
            seg.start, exclude=key
        ):
            if other_priority < running_priority - TIME_EPS:
                # a strictly higher-priority sub-job was pending; legal
                # only if it arrived exactly at the segment end boundary
                violations.append(
                    Violation(
                        seg.start,
                        "priority",
                        f"{key} ran with key {running_priority:.6f} while "
                        f"{other_key} (key {other_priority:.6f}, "
                        f"submitted {other_submit:.6f}) was pending",
                    )
                )

    # --- work conservation: no idle gaps while work is pending --------
    boundaries = sorted(
        {ev.time for ev in trace.subjob_events}
        | {seg.start for seg in trace.segments}
        | {seg.end for seg in trace.segments}
    )
    busy = sorted(
        ((seg.start, seg.end) for seg in trace.segments),
    )

    def is_busy(t: float) -> bool:
        for lo, hi in busy:
            if lo - TIME_EPS <= t < hi - TIME_EPS:
                return True
            if lo > t:
                break
        return False

    for left, right in zip(boundaries, boundaries[1:]):
        mid = (left + right) / 2.0
        if is_busy(mid):
            continue
        pending = pending_at(mid, exclude=("", -1, ""))
        # exclude sub-jobs that complete without execution (zero-length)
        truly_pending = [
            key for key, _, _ in pending if completions.get(key, None)
            is None or completions[key] > mid + TIME_EPS
        ]
        if truly_pending:
            violations.append(
                Violation(
                    left,
                    "idle",
                    f"processor idle in ({left:.6f}, {right:.6f}) while "
                    f"{truly_pending} pending",
                )
            )

    return violations
