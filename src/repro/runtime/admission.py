"""Online admission control: adding tasks to a running system.

The paper decides offloading once, offline.  A deployed system also
faces *mode changes*: a new task arrives (a new sensing mode, a user
request) and the question is whether it can join without endangering
the existing guarantees.

:class:`AdmissionController` answers in two stages, cheapest first:

1. **Incremental** — keep every existing decision untouched and admit
   the newcomer locally (or at one of its own benefit points) if the
   Theorem 3 budget still closes.  O(Q_new) work, nothing re-planned.
2. **Re-plan** — re-run the full ODM over the union.  Existing tasks
   may be re-assigned (different ``R_i``, offload↔local), which is safe
   — the guarantee is per-decision, not per-history — but is reported
   so the caller can apply the changes atomically at a job boundary.

Rejection means the union is infeasible even all-local, i.e. the
newcomer simply does not fit on this processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.odm import (
    DEFAULT_SERVER,
    OffloadingDecision,
    OffloadingDecisionManager,
)
from ..core.schedulability import OffloadAssignment, theorem3_test
from ..core.task import OffloadableTask, Task, TaskSet

__all__ = ["AdmissionVerdict", "AdmissionController"]


@dataclass(frozen=True)
class AdmissionVerdict:
    """Outcome of an admission attempt.

    ``admitted`` — whether the newcomer can run at all;
    ``mode`` — ``"incremental"`` (existing decisions untouched),
    ``"replan"`` (some existing settings changed) or ``"rejected"``;
    ``response_times`` — the full new setting map when admitted;
    ``changed_tasks`` — ids whose ``R_i`` differs from before (empty in
    incremental mode).
    """

    admitted: bool
    mode: str
    response_times: Mapping[str, float] = field(default_factory=dict)
    changed_tasks: Tuple[str, ...] = ()
    expected_benefit: float = 0.0


class AdmissionController:
    """Admission decisions against a current task set + decision."""

    def __init__(
        self,
        tasks: TaskSet,
        decision: OffloadingDecision,
        solver: str = "dp",
    ) -> None:
        self.tasks = tasks
        self.decision = decision
        self.solver = solver

    # ------------------------------------------------------------------
    def _current_assignments(self) -> List[OffloadAssignment]:
        return self.decision.assignments()

    def _incremental_options(
        self, new_task: Task
    ) -> List[Tuple[float, float, float]]:
        """Feasible settings for the newcomer alone:
        ``(benefit, R, demand_rate)`` sorted by descending benefit."""
        options: List[Tuple[float, float, float]] = []
        local_rate = new_task.wcet / min(new_task.period, new_task.deadline)
        if isinstance(new_task, OffloadableTask):
            local_benefit = (
                new_task.benefit.local_benefit * new_task.weight
            )
            for point in new_task.benefit.points:
                if point.is_local:
                    continue
                slack = new_task.deadline - point.response_time
                if slack <= 0:
                    continue
                try:
                    rate = new_task.offload_demand_rate(
                        point.response_time
                    )
                except ValueError:
                    continue
                options.append(
                    (
                        point.benefit * new_task.weight,
                        point.response_time,
                        rate,
                    )
                )
        else:
            local_benefit = 0.0
        options.append((local_benefit, 0.0, local_rate))
        options.sort(key=lambda o: (-o[0], o[2]))
        return options

    # ------------------------------------------------------------------
    def try_admit(self, new_task: Task) -> AdmissionVerdict:
        """Attempt to admit ``new_task``; the controller state is only
        updated when the caller applies the verdict via :meth:`apply`."""
        if new_task.task_id in self.tasks:
            raise ValueError(f"task {new_task.task_id!r} already admitted")

        union = TaskSet(list(self.tasks) + [new_task])

        # stage 1: incremental — existing settings frozen
        current_rate = self.decision.total_demand_rate
        headroom = 1.0 - current_rate
        for benefit, r, rate in self._incremental_options(new_task):
            if rate > headroom + 1e-12:
                continue
            assignments = self._current_assignments()
            if r > 0:
                assignments.append(
                    OffloadAssignment(new_task.task_id, r)
                )
            check = theorem3_test(union, assignments)
            if not check.feasible:
                continue
            response_times = dict(self.decision.response_times)
            response_times[new_task.task_id] = r
            return AdmissionVerdict(
                admitted=True,
                mode="incremental",
                response_times=response_times,
                changed_tasks=(),
                expected_benefit=self.decision.expected_benefit + benefit,
            )

        # stage 2: full re-plan over the union
        if union.total_utilization > 1.0 + 1e-9:
            return AdmissionVerdict(admitted=False, mode="rejected")
        new_decision = OffloadingDecisionManager(self.solver).decide(union)
        changed = tuple(
            sorted(
                tid
                for tid, r in new_decision.response_times.items()
                if tid != new_task.task_id
                and r != self.decision.response_times.get(tid)
            )
        )
        return AdmissionVerdict(
            admitted=True,
            mode="replan",
            response_times=dict(new_decision.response_times),
            changed_tasks=changed,
            expected_benefit=new_decision.expected_benefit,
        )

    def apply(self, new_task: Task, verdict: AdmissionVerdict) -> None:
        """Commit an admitted verdict into the controller's state."""
        if not verdict.admitted:
            raise ValueError("cannot apply a rejected verdict")
        union = TaskSet(list(self.tasks) + [new_task])
        assignments = [
            OffloadAssignment(tid, r)
            for tid, r in verdict.response_times.items()
            if r > 0
        ]
        check = theorem3_test(union, assignments)
        if not check.feasible:
            raise AssertionError("verdict no longer feasible at apply time")
        self.tasks = union
        self.decision = OffloadingDecision(
            placements={
                tid: (DEFAULT_SERVER if r > 0 else None, r)
                for tid, r in verdict.response_times.items()
            },
            expected_benefit=verdict.expected_benefit,
            total_demand_rate=check.total_demand_rate,
            schedulability=check,
            solver=self.solver,
        )
