"""The full offloading system of the paper's Figure 1, wired end to end.

:class:`OffloadingSystem` composes the architecture's three components —
the Benefit and Response Time Estimator (supplied benefit functions or a
probing campaign), the Offloading Decision Manager (MCKP reduction +
solver), and the Local Compensation Manager (the split-deadline
scheduler's timers) — against a chosen server scenario, and runs the
whole thing on the discrete-event engine.

:class:`WindowedOffloadingSystem` closes Figure 1's feedback from the
estimator into the decision manager: window by window it decides,
simulates and tallies, and a policy subclass re-decides from what the
window showed.  It and the one-shot run share :func:`simulate`.

This is the type the examples and the Figure 2 experiment drive; lower
layers remain individually usable for targeted studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple,
)

from ..core.odm import (
    DEFAULT_SERVER,
    OffloadingDecision,
    OffloadingDecisionManager,
)
from ..core.task import TaskSet
from ..observability import Observability, maybe_profiled
from ..sched.exec_time import ExecutionTimeModel
from ..sched.offload_scheduler import OffloadingScheduler
from ..sched.transport import OffloadTransport
from ..server.scenarios import ServerScenario, build_server, resolve_scenario
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams, derive_seed
from ..sim.trace import Trace
from .report import SystemReport

if TYPE_CHECKING:  # pragma: no cover — runtime import would be cyclic
    from ..faults.injectors import FaultSchedule

__all__ = [
    "OffloadingSystem",
    "simulate",
    "WindowRecord",
    "WindowedReport",
    "WindowedOffloadingSystem",
]


def simulate(
    tasks: TaskSet,
    scenario: ServerScenario,
    response_times: Mapping[str, float],
    horizon: float,
    seed: int,
    observability: Observability,
    fault_schedule: Optional["FaultSchedule"] = None,
    fault_stream: str = "faults",
    time_offset: float = 0.0,
    wrap_transport: Optional[
        Callable[[OffloadTransport], OffloadTransport]
    ] = None,
    **scheduler_options,
) -> Trace:
    """Run one decision for ``horizon`` on a fresh engine and server.

    Every random draw comes from ``RandomStreams(seed)``; the fault
    injector (global time ``time_offset`` at the run's start) draws from
    its ``fault_stream``.  ``wrap_transport`` wraps the client's transport
    outermost, and ``scheduler_options`` go to the
    :class:`~repro.sched.offload_scheduler.OffloadingScheduler`.
    """
    sim = Simulator(bus=observability.bus)
    streams = RandomStreams(seed=seed)
    transport = build_server(sim, scenario, streams).transport
    if fault_schedule is not None:
        from ..faults.injectors import FaultInjectionTransport

        transport = FaultInjectionTransport(
            sim,
            transport,
            fault_schedule,
            time_offset=time_offset,
            rng=streams.get(fault_stream),
        )
    if wrap_transport is not None:
        transport = wrap_transport(transport)
    scheduler = OffloadingScheduler(
        sim,
        tasks,
        response_times=response_times,
        transport=transport,
        **scheduler_options,
    )
    with maybe_profiled(observability.profiler):
        return scheduler.run(horizon)


class OffloadingSystem:
    """Decide-and-run facade over the whole stack.

    Parameters
    ----------
    tasks:
        Task set with benefit functions already established (use
        :mod:`repro.estimator` to build them from measurements first if
        needed).
    scenario:
        A :class:`~repro.server.scenarios.ServerScenario` or the name of
        a preset (``"busy"``, ``"not_busy"``, ``"idle"``).
    solver:
        MCKP solver name forwarded to the ODM (default ``"dp"``).
    resolution:
        Optional capacity-quantization override forwarded to the DP
        solver (ignored by the others).
    cache:
        Optional :class:`~repro.knapsack.SolverCache` (or ``True`` for a
        private one) forwarded to the ODM so repeated decisions on
        identical instances are free.
    seed:
        Root seed for every stochastic component of the run.
    deadline_mode:
        ``"split"`` (the paper's algorithm) or ``"naive"`` baseline.
    fault_schedule:
        Optional :class:`~repro.faults.FaultSchedule` injected between
        the client and the server scenario (crash windows, partitions,
        latency storms, …) for robustness studies.
    observability:
        Optional :class:`~repro.observability.Observability` bundle.
        When enabled, the run emits structured events onto its trace
        bus, folds them into its metrics registry, and times the hot
        paths with its profiler.  Default: fully disabled (no-op on the
        hot path).
    """

    def __init__(
        self,
        tasks: TaskSet,
        scenario: "ServerScenario | str" = "idle",
        solver: str = "dp",
        seed: int = 0,
        deadline_mode: str = "split",
        exec_model: Optional[ExecutionTimeModel] = None,
        fault_schedule: Optional["FaultSchedule"] = None,
        observability: Optional[Observability] = None,
        resolution: Optional[int] = None,
        cache=None,
    ) -> None:
        self.tasks = tasks
        self.scenario = resolve_scenario(scenario)
        self.seed = seed
        self.deadline_mode = deadline_mode
        self.exec_model = exec_model
        self.fault_schedule = fault_schedule
        self.observability = (
            observability
            if observability is not None
            else Observability.disabled()
        )
        solver_kwargs = {}
        if resolution is not None and solver == "dp":
            solver_kwargs["resolution"] = resolution
        self.odm = OffloadingDecisionManager(
            solver=solver, cache=cache, **solver_kwargs
        )
        if self.observability.is_enabled and self.odm.cache is not None:
            self.odm.cache.bind_metrics(self.observability.metrics)
        self._decision: Optional[OffloadingDecision] = None

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def decide(self) -> OffloadingDecision:
        """Run the ODM once and cache the decision."""
        if self._decision is None:
            with maybe_profiled(self.observability.profiler):
                self._decision = self.odm.decide(self.tasks)
            bus = self.observability.bus
            if bus.enabled:
                bus.emit(
                    "odm.decision",
                    0.0,
                    solver=self.odm.solver_name,
                    offloaded=sorted(self._decision.offloaded_task_ids),
                    expected_benefit=self._decision.expected_benefit,
                    demand_rate=self._decision.total_demand_rate,
                )
        return self._decision

    def run(self, horizon: float = 10.0) -> SystemReport:
        """Decide (if not yet decided) and simulate for ``horizon``.

        Builds a fresh engine + server each call, so repeated runs with
        the same seed are identical and runs with different seeds are
        independent.  With observability enabled the run additionally
        leaves a replayable event log on ``observability.bus`` and a
        metrics snapshot in ``observability.metrics``.
        """
        obs = self.observability
        decision = self.decide()
        trace = simulate(
            self.tasks,
            self.scenario,
            decision.response_times,
            horizon,
            self.seed,
            obs,
            fault_schedule=self.fault_schedule,
            deadline_mode=self.deadline_mode,
            exec_model=self.exec_model,
        )
        if obs.is_enabled:
            obs.metrics.gauge("run.utilization").set(
                trace.utilization(horizon)
            )
            obs.metrics.gauge("run.expected_benefit").set(
                decision.expected_benefit
            )
        return SystemReport(decision=decision, trace=trace, horizon=horizon)


@dataclass
class WindowRecord:
    """What one window decided and observed."""

    window: int
    #: breaker state the window *ran* under (before its evidence lands)
    state: str
    response_times: Dict[str, float]
    offloaded: int
    returned: int
    compensated: int
    realized_benefit: float
    expected_benefit: float
    deadline_misses: int
    #: belief corrections this window's evidence applied
    correction_factors: Dict[str, float] = field(default_factory=dict)

    @property
    def return_rate(self) -> float:
        """Fraction of the window's offloaded jobs served in time."""
        return self.returned / self.offloaded if self.offloaded else 0.0

    @property
    def compensation_rate(self) -> float:
        """Fraction of the window's offloaded jobs that compensated."""
        return self.compensated / self.offloaded if self.offloaded else 0.0

    @property
    def failure_rate(self) -> float:
        """Fraction of this window's finished offloads that needed
        compensation (0 when none finished)."""
        outcomes = self.returned + self.compensated
        return self.compensated / outcomes if outcomes else 0.0

    @property
    def degraded(self) -> bool:
        return self.state == "open"


@dataclass
class WindowedReport:
    """A windowed run: one record per window plus the breaker history."""

    windows: List[WindowRecord] = field(default_factory=list)
    transitions: List[Tuple[int, str, str]] = field(default_factory=list)
    trips: int = 0
    recoveries: int = 0

    @property
    def deadline_misses(self) -> int:
        return sum(w.deadline_misses for w in self.windows)

    @property
    def hard_deadline_invariant(self) -> bool:
        """The property the whole mechanism exists for."""
        return self.deadline_misses == 0

    @property
    def degraded_windows(self) -> int:
        return sum(1 for w in self.windows if w.degraded)

    def recovery_latency_windows(self) -> Optional[int]:
        """Windows from the last trip to the following re-close.

        ``None`` when the breaker never tripped or never recovered.
        """
        last_open = None
        for window, _old, new in self.transitions:
            if new == "open":
                last_open = window
            elif new == "closed" and last_open is not None:
                return window - last_open
        return None

    def series(self, attr: str) -> List[float]:
        return [getattr(w, attr) for w in self.windows]


class WindowedOffloadingSystem:
    """The windowed decide → simulate → tally loop.

    Its two policies are
    :class:`~repro.runtime.health.ResilientOffloadingSystem` (breaker)
    and :class:`~repro.runtime.adaptive.AdaptiveOffloadingSystem`
    (belief).  A policy subclass supplies two hooks: ``decide_window()``
    returns the window's decision plus keyword arguments for
    :func:`simulate`, and ``observe_window(record, decision, trace)``
    folds the simulated window into the policy's state.  Decisions go
    through one cached manager on the one server
    :data:`~repro.core.odm.DEFAULT_SERVER`; a cache hit rebinds the
    stored selection.

    Window ``i`` runs on a fresh engine and server seeded with
    ``derive_seed(seed, f"w{i}")``, and a fault schedule is in global
    time.  So no job is in flight at a window boundary, and the switch
    between two decisions is never simulated (ROADMAP item 11).
    """

    def __init__(
        self,
        tasks: TaskSet,
        scenario: "ServerScenario | str",
        solver: str,
        seed: int,
        window: float,
        fault_schedule: Optional["FaultSchedule"],
        observability: Optional[Observability] = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.tasks = tasks
        self.scenario = resolve_scenario(scenario)
        self.seed = seed
        self.window = window
        self.fault_schedule = fault_schedule
        self.odm = OffloadingDecisionManager(solver=solver, cache=True)
        self.observability = (
            observability
            if observability is not None
            else Observability.disabled()
        )

    def run(self, num_windows: int = 8) -> WindowedReport:
        if num_windows <= 0:
            raise ValueError("num_windows must be positive")
        obs = self.observability
        bus = obs.bus
        health = self.odm.health
        report = WindowedReport()
        for index in range(num_windows):
            state = health.state(DEFAULT_SERVER)
            # window-local sim time is offset onto the global timeline
            # so the one event stream spans every window
            bus.clock_offset = index * self.window
            decision, options = self.decide_window()
            if bus.enabled:
                bus.emit(
                    "odm.decision",
                    0.0,
                    window=index,
                    solver=self.odm.solver_name,
                    degraded=decision.degraded,
                    offloaded=sorted(decision.offloaded_task_ids),
                    expected_benefit=decision.expected_benefit,
                    demand_rate=decision.total_demand_rate,
                )
            trace = simulate(
                self.tasks,
                self.scenario,
                decision.response_times,
                self.window,
                derive_seed(self.seed, f"w{index}"),
                obs,
                fault_schedule=self.fault_schedule,
                fault_stream=f"faults{index}",
                time_offset=index * self.window,
                **options,
            )
            record = WindowRecord(
                index,
                state,
                dict(decision.response_times),
                *trace.offload_counts(),
                realized_benefit=trace.total_benefit(),
                expected_benefit=decision.expected_benefit,
                deadline_misses=trace.deadline_miss_count,
            )
            self.observe_window(record, decision, trace)
            report.windows.append(record)
            new_state = health.state(DEFAULT_SERVER)
            if bus.enabled and new_state != state:
                bus.emit(
                    "breaker.state",
                    self.window,  # window end, offset to global time
                    window=index,
                    old=state,
                    new=new_state,
                )
        bus.clock_offset = 0.0
        breaker = health.breaker(DEFAULT_SERVER)
        report.transitions = list(breaker.transitions)
        report.trips = breaker.trips
        report.recoveries = breaker.recoveries
        return report
