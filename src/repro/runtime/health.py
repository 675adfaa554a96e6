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
* :class:`ResilientOffloadingSystem` is the breaker policy of the
  windowed loop in :mod:`repro.runtime.system`, composing with the
  fault injectors in :mod:`repro.faults`.

Deadline safety never depends on any of this: whatever state the
breaker is in, Theorem 3 holds for the decision in force and local
compensation guards every job.  The breaker only protects *benefit* —
it stops paying setup time ``C_{i,1}`` for offloads that cannot succeed
and re-admits them when the server recovers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.benefit import BenefitFunction
from ..core.odm import DEFAULT_SERVER, OffloadingDecision
from ..core.task import OffloadableTask, TaskSet
from ..observability import Observability
from ..sim.trace import Trace
from .system import WindowedOffloadingSystem, WindowRecord

if TYPE_CHECKING:  # pragma: no cover — runtime import would be cyclic
    from ..faults.injectors import FaultSchedule
    from ..server.scenarios import ServerScenario

__all__ = [
    "BREAKER_STATES",
    "CircuitBreaker",
    "BreakerBank",
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


class ResilientOffloadingSystem(WindowedOffloadingSystem):
    """The windowed loop's breaker policy: breaker-driven degradation.

    Every window decides through the manager's breaker bank
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
        super().__init__(
            tasks, scenario, solver, seed, window, fault_schedule,
            observability,
        )
        if breaker is not None:
            self.odm.health.breakers[DEFAULT_SERVER] = breaker

    @property
    def breaker(self) -> CircuitBreaker:
        """The manager's breaker for the server this loop offloads to."""
        return self.odm.health.breaker(DEFAULT_SERVER)

    def decide_window(self) -> Tuple[OffloadingDecision, Dict[str, Any]]:
        return self.odm.decide(self.tasks), {}

    def observe_window(
        self, record: WindowRecord, decision: OffloadingDecision, trace: Trace
    ) -> None:
        self.odm.health.record(
            DEFAULT_SERVER,
            successes=record.returned,
            failures=record.compensated,
        )
        self.odm.health.close_window(record.window)
