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

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.benefit import scale_response_times
from ..core.odm import OffloadingDecision, OffloadingDecisionManager
from ..core.task import OffloadableTask, TaskSet
from ..sched.offload_scheduler import OffloadingScheduler
from ..sched.transport import OffloadRequest, OffloadTransport
from ..server.scenarios import SCENARIOS, ServerScenario, build_server
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams, derive_seed
from ..sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover — runtime import would be cyclic
    from ..faults.injectors import FaultSchedule

__all__ = ["AdaptiveOffloadingSystem", "AdaptiveReport", "WindowRecord"]


class _PerTaskRecordingTransport:
    """Wraps a transport, recording observed response times per task."""

    def __init__(self, inner: OffloadTransport) -> None:
        self.inner = inner
        self.samples: Dict[str, List[float]] = {}

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


@dataclass
class WindowRecord:
    """What one adaptation window observed and decided."""

    window: int
    response_times: Dict[str, float]
    expected_benefit: float
    realized_benefit: float
    return_rate: float
    compensation_rate: float
    deadline_misses: int
    correction_factors: Dict[str, float] = field(default_factory=dict)


@dataclass
class AdaptiveReport:
    """Full run: one record per window."""

    windows: List[WindowRecord] = field(default_factory=list)

    def series(self, attr: str) -> List[float]:
        return [getattr(w, attr) for w in self.windows]


class AdaptiveOffloadingSystem:
    """Windowed decide → run → observe → correct loop.

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
        if isinstance(scenario, str):
            if scenario not in SCENARIOS:
                raise ValueError(f"unknown scenario {scenario!r}")
            scenario = SCENARIOS[scenario]
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if max_step <= 1:
            raise ValueError("max_step must exceed 1")
        if window <= 0:
            raise ValueError("window must be positive")
        self.tasks = tasks
        self.scenario = scenario
        self.seed = seed
        self.window = window
        self.percentile = percentile
        self.alpha = alpha
        self.max_step = max_step
        self.min_samples = min_samples
        self.fault_schedule = fault_schedule
        self.odm = OffloadingDecisionManager(solver=solver)
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
    # main loop
    # ------------------------------------------------------------------
    def run(self, num_windows: int = 5) -> AdaptiveReport:
        """Run ``num_windows`` windows on one continuous server."""
        if num_windows <= 0:
            raise ValueError("num_windows must be positive")
        report = AdaptiveReport()
        for index in range(num_windows):
            believed = self._believed_tasks()
            decision = self.odm.decide(believed)

            # Pin realized benefits to the true quality of the level
            # each believed r corresponds to (the believed staircase is
            # a horizontally scaled copy of the true one, so positions
            # match 1:1).
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

            sim = Simulator()
            streams = RandomStreams(seed=derive_seed(self.seed, f"w{index}"))
            built = build_server(sim, self.scenario, streams)
            inner: OffloadTransport = built.transport
            if self.fault_schedule is not None:
                from ..faults.injectors import FaultInjectionTransport

                inner = FaultInjectionTransport(
                    sim,
                    inner,
                    self.fault_schedule,
                    time_offset=index * self.window,
                    rng=streams.get(f"faults{index}"),
                )
            transport = _PerTaskRecordingTransport(inner)
            scheduler = OffloadingScheduler(
                sim,
                self.tasks,  # real timing parameters, believed decisions
                response_times=decision.response_times,
                transport=transport,
                offload_benefit_overrides=overrides,
                level_workload_overrides=workload_anchors,
            )
            trace = scheduler.run(self.window)

            offloaded = [
                rec for rec in trace.jobs.values() if rec.offloaded
            ]
            returned = sum(1 for rec in offloaded if rec.result_returned)
            record = WindowRecord(
                window=index,
                response_times=dict(decision.response_times),
                expected_benefit=decision.expected_benefit,
                realized_benefit=trace.total_benefit(),
                return_rate=returned / len(offloaded) if offloaded else 0.0,
                compensation_rate=trace.compensation_rate(),
                deadline_misses=trace.deadline_miss_count,
            )
            record.correction_factors = self._update_corrections(
                decision, transport.samples, trace
            )
            report.windows.append(record)
        return report
