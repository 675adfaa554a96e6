"""Server health monitoring and circuit-breaker degradation.

The compensation timer already tells the client, for every offloaded
job, whether the server answered within ``R_i`` — information the paper
uses only for benefit accounting.  This module turns it into a runtime
resilience loop:

* :class:`CircuitBreaker` is the classic three-state machine over each
  window's offload failure rate: ``closed`` (offloading allowed) →
  ``open`` when the server looks dead (the decision manager prunes the
  server, so every task runs its local-only configuration) →
  ``half_open`` after a cooldown (one probing window re-tries
  offloading) → ``closed`` again when the probe succeeds;
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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.benefit import BenefitFunction
from ..core.odm import DEFAULT_SERVER, OffloadingDecisionManager
from ..core.task import OffloadableTask, TaskSet
from ..observability import Observability, maybe_profiled
from ..sched.offload_scheduler import OffloadingScheduler
from ..server.scenarios import SCENARIOS, ServerScenario, build_server
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams, derive_seed

if TYPE_CHECKING:  # pragma: no cover — runtime import would be cyclic
    from ..faults.injectors import FaultSchedule

__all__ = [
    "BREAKER_STATES",
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
    Deciding with the server's breaker open gives the same decision.
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
        #: the current state came from gossip, not from this breaker's
        #: own outcome evidence (a replica does not re-advertise it)
        self.remote = False
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
        if evidence and self.state != "open":
            self.remote = False

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
            self.remote = True
            self._move(window, "open")
        elif state == "closed" and self.state == "half_open":
            self.recoveries += 1
            self.remote = True
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

    The loop decides through the manager's breaker bank
    (:attr:`OffloadingDecisionManager.health`) on the one server
    :data:`~repro.core.odm.DEFAULT_SERVER`:

    * ``closed``/``half_open`` — the server's items stay in the MCKP and
      the window offloads normally (a ``half_open`` window doubles as
      the recovery probe);
    * ``open`` — the manager prunes the server, so the decision is the
      local-only reduction: still an explicit, Theorem-3-verified
      decision rather than an ad-hoc patch.

    Each window's timely and compensated offloads are the breaker's
    evidence.  ``breaker`` installs a configured breaker for the server.

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
        if breaker is not None:
            self.odm.health.breakers[DEFAULT_SERVER] = breaker
        self.observability = (
            observability
            if observability is not None
            else Observability.disabled()
        )

    @property
    def breaker(self) -> CircuitBreaker:
        """The manager's breaker for the server this loop offloads to."""
        return self.odm.health.breaker(DEFAULT_SERVER)

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
            decision = self.odm.decide(self.tasks)
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

            offloaded = [r for r in trace.jobs.values() if r.offloaded]
            returned = sum(1 for r in offloaded if r.result_returned)
            compensated = sum(1 for r in offloaded if r.compensated)
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
                )
            )
            state_before = self.breaker.state
            self.odm.health.record(
                DEFAULT_SERVER, successes=returned, failures=compensated
            )
            state_after = self.odm.health.close_window(index)[DEFAULT_SERVER]
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
