"""Adaptive re-estimation: closing the Figure 1 feedback loop online.

The paper's §6.2 shows that a wrong response-time estimate costs real
benefit.  Its architecture already contains the fix — the Benefit and
Response Time Estimator observes every offloaded job — so this module
implements the natural extension: run in windows, compare the observed
response-time percentile of each offloaded task against the believed
``r`` it was offloaded at, and multiplicatively correct the task's
benefit discretization before re-running the Offloading Decision
Manager for the next window.

The correction is deliberately conservative:

* only tasks that actually offloaded (and got ≥ ``min_samples``
  observations) are corrected — local tasks produce no evidence;
* the per-window factor is clamped to ``[1/max_step, max_step]`` and
  blended with weight ``alpha``, so one noisy window cannot swing the
  estimate;
* timing parameters (``C``'s, deadlines) are never touched — only the
  believed response times move, exactly the §6.2 error axis.

Deadline safety is *never* at stake: whatever the beliefs, Theorem 3 is
enforced per window and compensation guards every job.  Adaptation only
recovers the *benefit* lost to bad estimates.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.benefit import scale_response_times
from ..core.odm import OffloadingDecision
from ..core.task import OffloadableTask, TaskSet
from ..sched.transport import OffloadRequest, OffloadTransport
from ..sim.trace import Trace
from .system import WindowedOffloadingSystem, WindowedReport, WindowRecord

if TYPE_CHECKING:  # pragma: no cover — runtime import would be cyclic
    from ..faults.injectors import FaultSchedule
    from ..server.scenarios import ServerScenario

__all__ = ["AdaptiveOffloadingSystem"]


class _PerTaskRecordingTransport:
    """Wraps a window's transport, recording observed response times
    per task; :meth:`wrap` starts a new window."""

    def wrap(self, inner: OffloadTransport) -> "_PerTaskRecordingTransport":
        self.inner = inner
        self.samples: Dict[str, List[float]] = {}
        return self

    def submit(
        self, request: OffloadRequest, on_result: Callable[[float], None]
    ) -> None:
        submitted = request.submitted_at

        def recording_result(arrival: float) -> None:
            self.samples.setdefault(request.task.task_id, []).append(
                arrival - submitted
            )
            on_result(arrival)

        self.inner.submit(request, recording_result)


class AdaptiveOffloadingSystem(WindowedOffloadingSystem):
    """The windowed loop's belief policy: decide → run → observe →
    correct.

    Parameters
    ----------
    tasks:
        Initial task set with (possibly wrong) believed benefit
        functions.
    scenario:
        Server regime (preset name or :class:`ServerScenario`).
    window:
        Simulated seconds per adaptation window.
    percentile:
        Observed response-time percentile compared against the believed
        ``r`` (default 90 — the same percentile the case study's
        estimator uses).
    alpha:
        Blend weight of the new correction per window (0–1].
    max_step:
        Per-window clamp on the correction factor.
    min_samples:
        Minimum observations before a task's beliefs move.
    fault_schedule:
        Optional :class:`~repro.faults.FaultSchedule` in *global* time
        (continuous across windows) injected between client and server,
        so the adaptation loop can be studied under hostile conditions.
    """

    def __init__(
        self,
        tasks: TaskSet,
        scenario: "ServerScenario | str" = "idle",
        solver: str = "dp",
        seed: int = 0,
        window: float = 10.0,
        percentile: float = 90.0,
        alpha: float = 0.7,
        max_step: float = 3.0,
        min_samples: int = 3,
        fault_schedule: Optional["FaultSchedule"] = None,
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if max_step <= 1:
            raise ValueError("max_step must exceed 1")
        super().__init__(tasks, scenario, solver, seed, window, fault_schedule)
        self.percentile = percentile
        self.alpha = alpha
        self.max_step = max_step
        self.min_samples = min_samples
        self._recorder = _PerTaskRecordingTransport()
        #: accumulated multiplicative correction per task (1.0 = trust
        #: the original estimate)
        self.correction: Dict[str, float] = {
            t.task_id: 1.0 for t in tasks
        }

    # ------------------------------------------------------------------
    # belief management
    # ------------------------------------------------------------------
    def _believed_tasks(self) -> TaskSet:
        """The task set with each benefit function's response times
        scaled by the accumulated correction factor."""
        believed = TaskSet()
        for task in self.tasks:
            factor = self.correction[task.task_id]
            if not isinstance(task, OffloadableTask) or factor == 1.0:
                believed.add(task)
                continue
            believed.add(
                replace(
                    task, benefit=scale_response_times(task.benefit, factor)
                )
            )
        return believed

    def _update_corrections(
        self,
        decision: OffloadingDecision,
        samples: Dict[str, List[float]],
        trace: Trace,
    ) -> Dict[str, float]:
        """Blend observed-vs-believed ratios into the corrections.

        A task whose results mostly never arrived (high compensation
        rate with too few samples) is corrected upward by ``max_step`` —
        silence is the strongest evidence of under-estimation.
        """
        applied: Dict[str, float] = {}
        for task_id, believed_r in decision.response_times.items():
            if believed_r <= 0:
                continue
            observed = samples.get(task_id, [])
            if len(observed) >= self.min_samples:
                observed_r = float(np.percentile(observed, self.percentile))
                raw = observed_r / believed_r
            elif trace.compensation_rate(task_id) > 0.5:
                raw = self.max_step  # results not even arriving
            else:
                continue
            step = min(max(raw, 1.0 / self.max_step), self.max_step)
            blended = (1 - self.alpha) + self.alpha * step
            self.correction[task_id] *= blended
            applied[task_id] = blended
        return applied

    # ------------------------------------------------------------------
    # the loop's policy hooks
    # ------------------------------------------------------------------
    def decide_window(self) -> Tuple[OffloadingDecision, Dict[str, Any]]:
        """Decide over the believed tasks; simulate the true ones."""
        believed = self._believed_tasks()
        decision = self.odm.decide(believed)

        # Pin realized benefits to the true quality of the level each
        # believed r corresponds to (the believed staircase is a
        # horizontally scaled copy of the true one, so positions match
        # 1:1).
        overrides: Dict[str, float] = {}
        workload_anchors: Dict[str, float] = {}
        for task_id, r in decision.response_times.items():
            if r <= 0:
                continue
            believed_task = believed[task_id]
            level = believed_task.benefit.response_times.index(r)
            true_point = self.tasks[task_id].benefit.points[level]
            overrides[task_id] = true_point.benefit
            workload_anchors[task_id] = true_point.response_time
        return decision, {
            "wrap_transport": self._recorder.wrap,
            "offload_benefit_overrides": overrides,
            "level_workload_overrides": workload_anchors,
        }

    def observe_window(
        self, record: WindowRecord, decision: OffloadingDecision, trace: Trace
    ) -> None:
        record.correction_factors = self._update_corrections(
            decision, self._recorder.samples, trace
        )

    def run(self, num_windows: int = 5) -> WindowedReport:
        """Run ``num_windows`` windows, each on a fresh engine and
        server."""
        return super().run(num_windows)
