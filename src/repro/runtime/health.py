"""Server health monitoring and circuit-breaker degradation.

The compensation timer already tells the client, for every offloaded
job, whether the server answered within ``R_i`` — information the paper
uses only for benefit accounting.  This module turns it into a runtime
resilience loop:

* :class:`HealthMonitor` keeps a sliding window of per-job offload
  outcomes and estimates the current failure rate;
* :class:`CircuitBreaker` is the classic three-state machine over that
  estimate: ``closed`` (offloading allowed) → ``open`` when the server
  looks dead (offloaded tasks are demoted to local-only and the ODM is
  re-run over the surviving configuration) → ``half_open`` after a
  cooldown (one probing window re-tries offloading) → ``closed`` again
  when the probe succeeds;
* :class:`BreakerBank` keeps one breaker per named server plus that
  server's outcome counts for the current window — the per-server
  health of the decision manager and of the online service;
* :class:`ResilientOffloadingSystem` runs the windowed decide → run →
  observe loop end to end, composing with the fault injectors in
  :mod:`repro.faults`.

Deadline safety never depends on any of this: whatever state the
breaker is in, Theorem 3 holds for the decision in force and local
compensation guards every job.  The breaker only protects *benefit* —
it stops paying setup time ``C_{i,1}`` for offloads that cannot succeed
and re-admits them when the server recovers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from ..core.benefit import BenefitFunction
from ..core.odm import OffloadingDecision, OffloadingDecisionManager
from ..core.task import OffloadableTask, TaskSet
from ..observability import Observability, maybe_profiled
from ..sched.offload_scheduler import OffloadingScheduler
from ..server.scenarios import SCENARIOS, ServerScenario, build_server
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams, derive_seed
from ..sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover — runtime import would be cyclic
    from ..faults.injectors import FaultSchedule

__all__ = [
    "BREAKER_STATES",
    "HealthMonitor",
    "CircuitBreaker",
    "BreakerBank",
    "ResilienceWindow",
    "ResilienceReport",
    "ResilientOffloadingSystem",
    "local_only_tasks",
]

BREAKER_STATES = ("closed", "open", "half_open")


def local_only_tasks(tasks: TaskSet) -> TaskSet:
    """Demote every offloadable task to its local-only configuration.

    The benefit function is truncated to the mandatory ``r = 0`` point,
    so offloading becomes structurally impossible while the task set
    stays a valid ODM input — the degraded decision is still an
    explicit, Theorem-3-verified decision rather than an ad-hoc patch.
    Shared by the circuit-breaker loop here and the online service's
    degradation ladder (:mod:`repro.service.degradation`).
    """
    survivors = TaskSet()
    for task in tasks:
        if isinstance(task, OffloadableTask):
            survivors.add(
                OffloadableTask(
                    task_id=task.task_id,
                    wcet=task.wcet,
                    period=task.period,
                    deadline=task.deadline,
                    weight=task.weight,
                    setup_time=task.setup_time,
                    compensation_time=task.compensation_time,
                    post_time=task.post_time,
                    benefit=BenefitFunction([task.benefit.points[0]]),
                )
            )
        else:
            survivors.add(task)
    return survivors


class HealthMonitor:
    """Sliding-window failure-rate estimate over offload outcomes.

    An *outcome* is one offloaded job: success when the result arrived
    within ``R_i`` (the post-processing path ran), failure when the
    compensation timer fired first.  Exactly the distinction the Local
    Compensation Manager already makes — no new instrumentation on the
    hot path.
    """

    def __init__(self, window: float = 10.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._samples: Deque[Tuple[float, bool]] = deque()

    def record(self, time: float, timely: bool) -> None:
        self._samples.append((time, timely))
        self._evict(time)

    def observe_trace(self, trace: Trace, time_offset: float = 0.0) -> None:
        """Fold every finished offloaded job of ``trace`` in."""
        for rec in trace.jobs.values():
            if rec.offloaded and rec.finish is not None:
                self.record(rec.finish + time_offset, rec.result_returned)

    def _evict(self, now: float) -> None:
        horizon = now - self.window
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    def failure_rate(self, now: Optional[float] = None) -> float:
        """Fraction of windowed outcomes that needed compensation."""
        if now is not None:
            self._evict(now)
        if not self._samples:
            return 0.0
        failures = sum(1 for _, timely in self._samples if not timely)
        return failures / len(self._samples)


class CircuitBreaker:
    """Three-state breaker over windowed failure rates.

    Parameters
    ----------
    failure_threshold:
        Windowed failure rate at or above which a ``closed`` breaker
        trips (and a ``half_open`` probe is judged failed).
    min_samples:
        Minimum offload outcomes in a window before it counts as
        evidence; a window with fewer observations leaves the state
        unchanged (silence from a local-only window must not re-close
        the breaker).
    cooldown_windows:
        Number of ``open`` windows to sit out before probing.
    """

    def __init__(
        self,
        failure_threshold: float = 0.75,
        min_samples: int = 3,
        cooldown_windows: int = 1,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if cooldown_windows < 1:
            raise ValueError("cooldown_windows must be >= 1")
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.cooldown_windows = cooldown_windows
        self.state = "closed"
        self.trips = 0
        self.recoveries = 0
        #: trips caused by remote (gossiped) evidence, not local windows
        self.remote_trips = 0
        self._cooldown_left = 0
        #: (window_index, old_state, new_state) transition log
        self.transitions: List[Tuple[int, str, str]] = []

    @property
    def allows_offloading(self) -> bool:
        """Offloads flow in ``closed`` and (as probes) ``half_open``."""
        return self.state != "open"

    def _move(self, window: int, new_state: str) -> None:
        if new_state != self.state:
            self.transitions.append((window, self.state, new_state))
            self.state = new_state

    def record_window(
        self, window: int, successes: int, failures: int
    ) -> str:
        """Feed one window's offload outcome counts; returns new state."""
        if successes < 0 or failures < 0:
            raise ValueError("outcome counts must be non-negative")
        total = successes + failures
        rate = failures / total if total else 0.0
        evidence = total >= self.min_samples

        if self.state == "closed":
            if evidence and rate >= self.failure_threshold:
                self.trips += 1
                self._cooldown_left = self.cooldown_windows
                self._move(window, "open")
        elif self.state == "open":
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self._move(window, "half_open")
        elif self.state == "half_open":
            if evidence and rate < self.failure_threshold:
                self.recoveries += 1
                self._move(window, "closed")
            else:
                # probe failed (or produced no evidence): back off again
                self._cooldown_left = self.cooldown_windows
                self._move(window, "open")
        return self.state

    def apply_remote(self, state: str, window: int = 0) -> str:
        """Fold a peer's gossiped breaker state in; returns new state.

        Two remote transitions are trusted, both asymmetric by design:

        * remote ``open`` trips a ``closed``/``half_open`` breaker — a
          peer has already paid the failed-offload evidence for this
          server, so we stop *before* wasting our own traffic on it;
        * remote ``closed`` re-closes only a ``half_open`` breaker —
          the probe window is exactly where we are looking for
          recovery evidence, and a peer's successful traffic is such
          evidence.  A locally ``open`` breaker still sits out its
          cooldown first (the peer's recovery may be partition-local),
          so gossip can never skip the back-off entirely.
        """
        if state not in BREAKER_STATES:
            raise ValueError(
                f"unknown remote breaker state {state!r}; "
                f"expected one of {BREAKER_STATES}"
            )
        if state == "open" and self.state in ("closed", "half_open"):
            self.trips += 1
            self.remote_trips += 1
            self._cooldown_left = self.cooldown_windows
            self._move(window, "open")
        elif state == "closed" and self.state == "half_open":
            self.recoveries += 1
            self._move(window, "closed")
        return self.state


class BreakerBank:
    """One :class:`CircuitBreaker` per named server, fed window by window.

    Breakers are created closed on first use from the bank's
    :class:`CircuitBreaker` keyword arguments.  Outcomes accumulate as
    two counts per server until :meth:`close_window` hands them to the
    breakers, so the bank's state grows with the number of servers,
    never with the number of outcomes.
    """

    def __init__(self, **breaker_kwargs) -> None:
        self._breaker_kwargs = breaker_kwargs
        self.breakers: Dict[str, CircuitBreaker] = {}
        self._counts: Dict[str, List[int]] = {}

    def breaker(self, server_id: str) -> CircuitBreaker:
        """The breaker for ``server_id``, created closed on first use."""
        breaker = self.breakers.get(server_id)
        if breaker is None:
            breaker = CircuitBreaker(**self._breaker_kwargs)
            self.breakers[server_id] = breaker
        return breaker

    def state(self, server_id: str) -> str:
        """Current breaker state (``closed`` for unknown servers)."""
        breaker = self.breakers.get(server_id)
        return "closed" if breaker is None else breaker.state

    @property
    def open_servers(self) -> Tuple[str, ...]:
        """Servers whose breaker is ``open`` (pruned from routing)."""
        return tuple(
            server_id
            for server_id, breaker in self.breakers.items()
            if not breaker.allows_offloading
        )

    def record(
        self, server_id: str, successes: int = 0, failures: int = 0
    ) -> None:
        """Count offload outcomes against ``server_id`` this window."""
        self.breaker(server_id)
        counts = self._counts.setdefault(server_id, [0, 0])
        counts[0] += successes
        counts[1] += failures

    def close_window(self, window: int) -> Dict[str, str]:
        """Feed every breaker this window's counts; returns the states.

        Servers without outcomes this window still tick — an ``open``
        breaker must count down its cooldown even while pruned, or it
        could never probe again.
        """
        counts, self._counts = self._counts, {}
        return {
            server_id: self.breakers[server_id].record_window(
                window, *counts.get(server_id, (0, 0))
            )
            for server_id in sorted(self.breakers)
        }


@dataclass
class ResilienceWindow:
    """What one resilience window decided and observed."""

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
    failure_rate: float

    @property
    def degraded(self) -> bool:
        return self.state == "open"


@dataclass
class ResilienceReport:
    """Full resilient run: one record per window plus breaker history."""

    windows: List[ResilienceWindow] = field(default_factory=list)
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

    def series(self, attr: str) -> List[float]:
        return [getattr(w, attr) for w in self.windows]

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


class ResilientOffloadingSystem:
    """Windowed decide → run → observe loop with breaker degradation.

    Each window the loop asks the breaker whether offloading is allowed:

    * ``closed``/``half_open`` — the ODM runs over the full task set and
      the window offloads normally (a ``half_open`` window doubles as
      the recovery probe);
    * ``open`` — offloadable tasks are demoted to their local-only
      configuration (benefit function truncated to the ``r = 0`` point)
      and the ODM re-runs over that surviving configuration, so the
      degraded decision is still an explicit, Theorem-3-verified
      decision rather than an ad-hoc patch.

    A :class:`~repro.faults.FaultSchedule` (global time across windows)
    can be injected between the server and the client to exercise the
    loop under hostile conditions.
    """

    def __init__(
        self,
        tasks: TaskSet,
        scenario: "ServerScenario | str" = "idle",
        solver: str = "dp",
        seed: int = 0,
        window: float = 5.0,
        fault_schedule: Optional["FaultSchedule"] = None,
        breaker: Optional[CircuitBreaker] = None,
        monitor_window: Optional[float] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        if isinstance(scenario, str):
            if scenario not in SCENARIOS:
                raise ValueError(
                    f"unknown scenario {scenario!r}; presets: "
                    f"{sorted(SCENARIOS)}"
                )
            scenario = SCENARIOS[scenario]
        if window <= 0:
            raise ValueError("window must be positive")
        self.tasks = tasks
        self.scenario = scenario
        self.seed = seed
        self.window = window
        self.fault_schedule = fault_schedule
        # the loop re-decides the same (or local-only) instance every
        # window, so cache hits make re-decisions free after the first
        self.odm = OffloadingDecisionManager(solver=solver, cache=True)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.monitor = HealthMonitor(
            window=monitor_window if monitor_window is not None else window
        )
        self.observability = (
            observability
            if observability is not None
            else Observability.disabled()
        )

    # ------------------------------------------------------------------
    # degraded configuration
    # ------------------------------------------------------------------
    def _local_only_tasks(self) -> TaskSet:
        """The surviving configuration: offloading structurally disabled."""
        return local_only_tasks(self.tasks)

    def _decide(self) -> OffloadingDecision:
        if self.breaker.allows_offloading:
            return self.odm.decide(self.tasks)
        return self.odm.decide(self._local_only_tasks())

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, num_windows: int = 8) -> ResilienceReport:
        from ..faults.injectors import FaultInjectionTransport

        if num_windows <= 0:
            raise ValueError("num_windows must be positive")
        obs = self.observability
        bus = obs.bus
        report = ResilienceReport()
        for index in range(num_windows):
            state_during = self.breaker.state
            # window-local sim time is offset onto the global timeline
            # so the one event stream spans every window
            bus.clock_offset = index * self.window
            decision = self._decide()
            if bus.enabled:
                bus.emit(
                    "odm.decision",
                    0.0,
                    window=index,
                    solver=self.odm.solver_name,
                    degraded=not self.breaker.allows_offloading,
                    offloaded=sorted(decision.offloaded_task_ids),
                    expected_benefit=decision.expected_benefit,
                    demand_rate=decision.total_demand_rate,
                )

            sim = Simulator(bus=bus)
            streams = RandomStreams(seed=derive_seed(self.seed, f"w{index}"))
            built = build_server(sim, self.scenario, streams)
            transport = built.transport
            if self.fault_schedule is not None:
                transport = FaultInjectionTransport(
                    sim,
                    transport,
                    self.fault_schedule,
                    time_offset=index * self.window,
                    rng=streams.get(f"faults{index}"),
                )
            scheduler = OffloadingScheduler(
                sim,
                self.tasks,
                response_times=decision.response_times,
                transport=transport,
            )
            with maybe_profiled(obs.profiler):
                trace = scheduler.run(self.window)

            offset = index * self.window
            self.monitor.observe_trace(trace, time_offset=offset)
            offloaded = [r for r in trace.jobs.values() if r.offloaded]
            returned = sum(1 for r in offloaded if r.result_returned)
            compensated = sum(1 for r in offloaded if r.compensated)
            failure_rate = self.monitor.failure_rate(
                now=offset + self.window
            )
            report.windows.append(
                ResilienceWindow(
                    window=index,
                    state=state_during,
                    response_times=dict(decision.response_times),
                    offloaded=len(offloaded),
                    returned=returned,
                    compensated=compensated,
                    realized_benefit=trace.total_benefit(),
                    expected_benefit=decision.expected_benefit,
                    deadline_misses=trace.deadline_miss_count,
                    failure_rate=failure_rate,
                )
            )
            state_before = self.breaker.state
            state_after = self.breaker.record_window(
                index, successes=returned, failures=compensated
            )
            if bus.enabled and state_after != state_before:
                bus.emit(
                    "breaker.state",
                    self.window,  # window end, offset to global time
                    window=index,
                    old=state_before,
                    new=state_after,
                )
        bus.clock_offset = 0.0
        report.transitions = list(self.breaker.transitions)
        report.trips = self.breaker.trips
        report.recoveries = self.breaker.recoveries
        return report
