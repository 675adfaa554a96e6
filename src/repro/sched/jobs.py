"""Runtime job and sub-job objects used by the schedulers.

The analytical layer (:mod:`repro.core`) works with *tasks*; the
simulation layer works with *jobs* (one activation of a task) and
*sub-jobs* (the schedulable units EDF actually dispatches).  A local job
has a single ``"local"`` sub-job; an offloaded job has a ``"setup"``
sub-job and later either a ``"post"`` or a ``"compensation"`` sub-job,
per the paper's §5.1 split.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.task import Task
from ..sim.timecmp import quantize_time

__all__ = ["Job", "SubJob", "PHASES"]

#: Valid sub-job phases.
PHASES = ("local", "setup", "post", "compensation")

_subjob_counter = itertools.count()


@dataclass
class Job:
    """One activation of a task.

    ``job_id`` counts activations per task starting at 0.  The scheduler
    fills in lifecycle fields as the job progresses.
    """

    task: Task
    job_id: int
    release: float
    absolute_deadline: float
    offloaded: bool = False
    response_budget: float = 0.0  # selected R_i (0 for local jobs)
    finish: Optional[float] = None
    result_returned: bool = False
    compensated: bool = False
    realized_benefit: float = 0.0

    @property
    def key(self) -> tuple:
        return (self.task.task_id, self.job_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.task.task_id}#{self.job_id}, rel={self.release:.4g}, "
            f"dl={self.absolute_deadline:.4g})"
        )


@dataclass
class SubJob:
    """A schedulable unit with its own absolute deadline.

    ``remaining`` is decremented as the processor executes it; the
    uniprocessor fires ``on_complete`` when it hits zero.  The ``seq``
    field makes EDF tie-breaking deterministic (FIFO among equal
    deadlines).
    """

    job: Job
    phase: str
    wcet: float
    remaining: float
    absolute_deadline: float
    release: float
    on_complete: Optional[Callable[["SubJob", float], None]] = None
    seq: int = field(default_factory=lambda: next(_subjob_counter))
    completed: bool = False

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.wcet < 0 or self.remaining < 0:
            raise ValueError("negative execution time")

    @property
    def edf_key(self) -> tuple:
        """Heap ordering: quantized priority, then FIFO sequence.

        The primary key is :func:`~repro.sim.timecmp.quantize_time` of
        :attr:`absolute_deadline`, so deadlines that are analytically equal
        but differ by float dust (computed via different arithmetic
        paths) tie — and the tie is broken FIFO by ``seq``, matching the
        EDF convention of not preempting an equal-deadline running job.
        """
        return (quantize_time(self.absolute_deadline), self.seq)

    @property
    def task_id(self) -> str:
        return self.job.task.task_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubJob({self.task_id}#{self.job.job_id}/{self.phase}, "
            f"rem={self.remaining:.4g}, dl={self.absolute_deadline:.4g})"
        )
