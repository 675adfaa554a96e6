"""Composable, seeded fault models for the offload path.

A :class:`FaultSchedule` is a deterministic list of timed
:class:`FaultEvent` windows; a :class:`FaultInjectionTransport`
interprets the schedule around any inner
:class:`~repro.sched.transport.OffloadTransport` — the production
:class:`~repro.server.transport.GpuServerTransport` as well as the small
test transports — without the scheduler ever knowing faults exist.

Fault semantics (all windows are half-open ``[start, start+duration)``):

``crash``
    Server crash + restart window.  Requests submitted during the window
    never reach the server; results that would be delivered during the
    window are lost (the restarted server has no state for them).
``partition``
    Network partition.  Same observable behaviour as ``crash`` — nothing
    crosses the link in either direction — kept as a distinct kind so
    schedules and reports stay readable.
``latency_spike``
    Results delivered during the window are delayed by an extra
    ``magnitude`` seconds (a latency storm on the downlink).
``drop``
    Results delivered during the window are discarded with probability
    ``magnitude``.
``duplicate``
    Results delivered during the window are delivered a second time
    shortly after, with probability ``magnitude``.  The split-deadline
    scheduler must treat the duplicate as a no-op (its compensation
    state machine settles exactly once).
``delay``
    Late delivery: with probability ``magnitude``, the result is held
    back by ``extra`` seconds — typically long enough to blow past the
    compensation budget ``R_i``.

Because the guarantee is adversarial, *any* composition of these —
including one that blackholes every request forever — must never cause
a hard deadline miss; the chaos harness asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..sched.transport import OffloadRequest, OffloadTransport
from ..sim.engine import Simulator

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "FaultInjectionTransport",
]

#: The fault vocabulary.  ``magnitude`` is extra latency in seconds for
#: ``latency_spike``/``delay``, a probability in [0, 1] for
#: ``drop``/``duplicate``, and ignored for ``crash``/``partition``.
FAULT_KINDS = (
    "crash",
    "partition",
    "latency_spike",
    "drop",
    "duplicate",
    "delay",
)

_BLACKHOLE_KINDS = ("crash", "partition")
_PROBABILITY_KINDS = ("drop", "duplicate", "delay")


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault window.

    ``magnitude`` defaults to 1.0 (always drop/duplicate; one second of
    extra latency).  ``extra`` is only used by ``delay``: the hold-back
    applied to results selected with probability ``magnitude``.
    """

    kind: str
    start: float
    duration: float
    magnitude: float = 1.0
    extra: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if not np.isfinite(self.start) or self.start < 0:
            raise ValueError(f"fault start must be finite and >= 0, got {self.start}")
        if not np.isfinite(self.duration) or self.duration <= 0:
            raise ValueError(
                f"fault duration must be finite and positive, got {self.duration}"
            )
        if self.kind in _PROBABILITY_KINDS:
            if not 0.0 <= self.magnitude <= 1.0:
                raise ValueError(
                    f"{self.kind}: magnitude is a probability, got {self.magnitude}"
                )
        elif self.magnitude < 0:
            raise ValueError(f"{self.kind}: negative magnitude {self.magnitude}")
        if self.extra < 0:
            raise ValueError(f"{self.kind}: negative extra delay {self.extra}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def covers(self, time: float) -> bool:
        """Window membership (half-open interval)."""
        return self.start <= time < self.end


class FaultSchedule:
    """A deterministic, ordered list of timed fault events.

    The schedule is pure data: it can be logged, replayed, shifted in
    time, and composed.  Reproducible chaos runs are simply a seeded
    random schedule plus a seeded simulation.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.start, e.kind))
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def end_time(self) -> float:
        """When the last fault window closes (0.0 for an empty schedule)."""
        return max((e.end for e in self.events), default=0.0)

    def active(self, kind: str, time: float) -> bool:
        """Is any window of ``kind`` open at ``time``?"""
        return any(e.kind == kind and e.covers(time) for e in self.events)

    def blackholed(self, time: float) -> bool:
        """True while a crash or partition window is open."""
        return any(
            e.kind in _BLACKHOLE_KINDS and e.covers(time) for e in self.events
        )

    def magnitude(self, kind: str, time: float) -> float:
        """Combined magnitude of ``kind`` at ``time``.

        Extra latencies add (overlapping storms stack); probabilities
        take the max (overlapping windows do not exceed certainty).
        """
        values = [
            e.magnitude for e in self.events if e.kind == kind and e.covers(time)
        ]
        if not values:
            return 0.0
        if kind in _PROBABILITY_KINDS:
            return max(values)
        return sum(values)

    def delay_extra(self, time: float) -> float:
        """The hold-back applied by the widest active ``delay`` window."""
        values = [
            e.extra
            for e in self.events
            if e.kind == "delay" and e.covers(time)
        ]
        return max(values, default=0.0)

    # ------------------------------------------------------------------
    # transformations / builders
    # ------------------------------------------------------------------
    def shifted(self, offset: float) -> "FaultSchedule":
        """A copy with every window moved ``offset`` seconds later."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        return FaultSchedule(
            replace(e, start=e.start + offset) for e in self.events
        )

    def merged(self, other: "FaultSchedule") -> "FaultSchedule":
        return FaultSchedule(tuple(self.events) + tuple(other.events))

    @classmethod
    def outage(
        cls, start: float, duration: float, label: str = "outage"
    ) -> "FaultSchedule":
        """A single full server crash window."""
        return cls([FaultEvent("crash", start, duration, label=label)])

    @classmethod
    def partition(
        cls, start: float, duration: float, label: str = "partition"
    ) -> "FaultSchedule":
        return cls([FaultEvent("partition", start, duration, label=label)])

    @classmethod
    def latency_storm(
        cls,
        start: float,
        duration: float,
        extra_latency: float,
        label: str = "storm",
    ) -> "FaultSchedule":
        return cls(
            [
                FaultEvent(
                    "latency_spike",
                    start,
                    duration,
                    magnitude=extra_latency,
                    label=label,
                )
            ]
        )

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        horizon: float,
        mean_faults: float = 4.0,
        kinds: Sequence[str] = FAULT_KINDS,
        max_duration_fraction: float = 0.25,
    ) -> "FaultSchedule":
        """A seeded random schedule over ``[0, horizon)``.

        Draws a Poisson number of events (at least one), each with a
        uniform start, a duration up to ``max_duration_fraction`` of the
        horizon, and kind-appropriate magnitudes.  Identical ``rng``
        state produces identical schedules — chaos runs replay exactly.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        count = max(1, int(rng.poisson(mean_faults)))
        events = []
        for _ in range(count):
            kind = str(rng.choice(list(kinds)))
            start = float(rng.uniform(0.0, horizon))
            duration = float(
                rng.uniform(0.05, max_duration_fraction) * horizon
            )
            if kind in _PROBABILITY_KINDS:
                magnitude = float(rng.uniform(0.3, 1.0))
            elif kind == "latency_spike":
                magnitude = float(rng.uniform(0.05, 1.0))
            else:
                magnitude = 1.0
            events.append(
                FaultEvent(
                    kind,
                    start,
                    duration,
                    magnitude=magnitude,
                    extra=float(rng.uniform(0.5, 3.0)),
                )
            )
        return cls(events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{e.kind}[{e.start:.3g},{e.end:.3g})" for e in self.events
        )
        return f"FaultSchedule({inner})"


class FaultInjectionTransport:
    """Interpret a :class:`FaultSchedule` around any transport.

    Parameters
    ----------
    sim:
        The simulation engine (needed to re-schedule delayed results).
    inner:
        The wrapped transport — server model or test stub.  Wrapping is
        freely composable: a ``FaultInjectionTransport`` can itself wrap
        another one.
    schedule:
        The fault timeline, in *global* time.
    time_offset:
        Added to the engine clock when consulting the schedule.  Windowed
        runs that rebuild the engine per window (so local time restarts
        at 0) pass their window's global start time here, keeping one
        continuous chaos timeline across windows.
    rng:
        Seeded generator for the probabilistic kinds.
    """

    def __init__(
        self,
        sim: Simulator,
        inner: OffloadTransport,
        schedule: FaultSchedule,
        time_offset: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if time_offset < 0:
            raise ValueError("time_offset must be non-negative")
        self.sim = sim
        self.inner = inner
        self.schedule = schedule
        self.time_offset = time_offset
        self.rng = rng if rng is not None else np.random.default_rng(0)
        # observability counters, one per fault effect
        self.submitted = 0
        self.requests_blackholed = 0
        self.results_blackholed = 0
        self.results_dropped = 0
        self.results_duplicated = 0
        self.results_delayed = 0

    def _global(self, local_time: float) -> float:
        return local_time + self.time_offset

    def submit(
        self, request: OffloadRequest, on_result: Callable[[float], None]
    ) -> None:
        self.submitted += 1
        if self.schedule.blackholed(self._global(self.sim.now)):
            self.requests_blackholed += 1
            return  # the request never reaches the server

        def faulted_result(arrival: float) -> None:
            now = self._global(arrival)
            if self.schedule.blackholed(now):
                self.results_blackholed += 1
                return  # lost with the crashed server / dead link
            drop_p = self.schedule.magnitude("drop", now)
            if drop_p and float(self.rng.random()) < drop_p:
                self.results_dropped += 1
                return
            extra = self.schedule.magnitude("latency_spike", now)
            delay_p = self.schedule.magnitude("delay", now)
            if delay_p and float(self.rng.random()) < delay_p:
                extra += self.schedule.delay_extra(now)
            dup_p = self.schedule.magnitude("duplicate", now)
            duplicate = bool(dup_p and float(self.rng.random()) < dup_p)
            if extra > 0:
                self.results_delayed += 1
                self.sim.schedule(
                    extra,
                    lambda ev: on_result(ev.time),
                    name=f"fault-delay:{request.task.task_id}#{request.job_id}",
                )
            else:
                on_result(arrival)
            if duplicate:
                self.results_duplicated += 1
                self.sim.schedule(
                    extra + 1e-6,
                    lambda ev: on_result(ev.time),
                    name=f"fault-dup:{request.task.task_id}#{request.job_id}",
                )

        self.inner.submit(request, faulted_result)
