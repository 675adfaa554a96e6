"""The structured trace bus: ring-buffered, schema-versioned events.

Every instrumented component (the DES engine, the EDF uniprocessor, the
split-deadline scheduler, the server transport, the ODM and the circuit
breaker) emits :class:`TraceEvent` records onto one :class:`TraceBus`.
The bus is the single source of truth the metrics recorder, the
invariant test suite and the ``repro trace`` CLI all consume, so a
property checked on the stream is checked against exactly what the
runtime did.

Hot-path contract
-----------------
Emission sites are written as::

    bus = self.bus
    if bus.enabled:
        bus.emit("subjob.start", now, task=..., job=..., phase=...)

``NULL_BUS`` (the default everywhere) has ``enabled = False``, so a
disabled run pays one attribute load and a branch per *candidate* event
— nothing per engine event, since the engine itself never emits
per-event records.  The buffer is a bounded ``deque`` (ring buffer):
unbounded runs cannot exhaust memory, at the cost of dropping the oldest
events once ``capacity`` is exceeded (``dropped`` counts them).

Schema
------
``SCHEMA_VERSION`` identifies the event vocabulary.  Version 2 added
the ``service.*`` family emitted by the online ODM service in
:mod:`repro.service`.  Version 3 adds the wire-hardening and dedup
events, the ``fleet.*`` family emitted by the multi-replica router and
chaos campaign in :mod:`repro.fleet`, and two optional fields on
``breaker.state`` (``server`` identifies the offload server, ``source``
is ``gossip:<replica>`` when a state change was driven by a remote
beacon rather than local evidence).  Every older kind is unchanged:

==========================  ==========================================
kind                        fields
==========================  ==========================================
``job.release``             task, job, release, deadline, offloaded
``subjob.submit``           task, job, phase, deadline, priority_key
``subjob.start``            task, job, phase
``subjob.preempt``          task, job, phase, remaining
``subjob.finish``           task, job, phase
``job.finish``              task, job, finish, response_time, benefit,
                            met_deadline, offloaded, returned,
                            compensated
``deadline.miss``           task, job, deadline, finish, lateness
``offload.send``            task, job, budget
``offload.receive``         task, job, latency, late
``offload.timeout``         task, job, budget
``offload.drop``            task, job, where
``phase.transition``        task, job, from, to
``odm.decision``            solver, offloaded, expected_benefit,
                            demand_rate
``breaker.state``           window, old, new [, server, source]
``engine.run``              events, wall_seconds
``service.request``         request, queue_depth
``service.shed``            request, queue_depth
``service.batch``           size, level, queue_depth, wall_seconds
``service.response``        request, status, level, solver, latency
``service.degrade``         old_level, new_level, queue_depth
``service.dedup``           request, settled
``service.wire_error``      error
``fleet.failover``          request, attempt, to, error
``fleet.hedge``             request, primary, hedge
``fleet.unrouted``          request, attempts, error
``fleet.replica_down``      replica
``fleet.replica_up``        replica, outage_seconds
``fleet.duplicate_delivery``  request
``fleet.kill``              replica
``fleet.restart``           replica
==========================  ==========================================

Events are plain data; :func:`TraceBus.to_records` /
:meth:`TraceBus.from_records` round-trip them through JSON so a trace
captured in one process can be replayed and re-checked in another.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
)

__all__ = ["SCHEMA_VERSION", "TraceEvent", "TraceBus", "NULL_BUS"]

#: Version of the event vocabulary documented above.
SCHEMA_VERSION = 3


@dataclass(frozen=True)
class TraceEvent:
    """One structured event on the bus.

    ``seq`` is a bus-local monotonic sequence number (emission order,
    which for equal timestamps is the causal order the simulation fired
    callbacks in).  ``time`` is simulation time in seconds, already
    including the bus clock offset for windowed runs.

    This is the *view* type: internally the bus stores plain tuples
    (constructing a dataclass per event would triple the hot-path cost)
    and materializes ``TraceEvent`` objects lazily on access.
    """

    seq: int
    time: float
    kind: str
    data: Dict[str, object]


class TraceBus:
    """Ring-buffered structured event sink with subscriptions.

    Parameters
    ----------
    capacity:
        Maximum number of retained events (oldest dropped first).
        ``None`` retains everything — fine for tests, risky for very
        long runs.
    enabled:
        When ``False`` the bus never records nor notifies; emission
        sites check this flag before building the event payload, so a
        disabled bus is free on the hot path.
    """

    __slots__ = (
        "enabled",
        "capacity",
        "clock_offset",
        "_cleared",
        "_seq",
        "_events",
        "_append",
        "_fold_get",
        "_subscribers",
        "_fold",
    )

    def __init__(
        self, capacity: Optional[int] = 65536, enabled: bool = True
    ) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be non-negative or None")
        self.enabled = enabled
        self.capacity = capacity
        #: added to every emitted timestamp; windowed runners set this
        #: to the window start so the stream carries global time.
        self.clock_offset = 0.0
        self._cleared = 0
        self._seq = 0
        # (seq, time, kind, data) tuples — see TraceEvent docstring
        self._events: Deque[tuple] = deque(maxlen=capacity)
        self._subscribers: List[Callable[..., None]] = []
        # kind -> callable(data): the metrics fast path (see fold_kinds)
        self._fold: Dict[str, Callable[[dict], None]] = {}
        # prebound for emit: both objects live as long as the bus
        self._append = self._events.append
        self._fold_get = self._fold.get

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit(self, kind: str, time: float, **data: object) -> None:
        """Record one event (no-op when disabled).

        This is the hot path: one tuple append plus one integer
        increment; ring-buffer dropping is the deque's own ``maxlen``
        and the ``emitted``/``dropped`` counts are derived lazily.
        """
        if not self.enabled:
            return
        seq = self._seq
        time = time + self.clock_offset
        self._seq = seq + 1
        self._append((seq, time, kind, data))
        fold = self._fold_get(kind)
        if fold is not None:
            fold(data)
        if self._subscribers:
            for subscriber in self._subscribers:
                subscriber(seq, time, kind, data)

    @property
    def emitted(self) -> int:
        """Total events ever emitted (or imported) onto this bus."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring buffer by newer ones."""
        return self._seq - self._cleared - len(self._events)

    def subscribe(self, callback: Callable[..., None]) -> None:
        """Invoke ``callback(seq, time, kind, data)`` synchronously for
        every future event."""
        self._subscribers.append(callback)

    def fold_kinds(
        self, handlers: Mapping[str, Callable[[dict], None]]
    ) -> None:
        """Register per-kind ``handler(data)`` callbacks.

        This is the metrics fast path: events of other kinds cost one
        dict probe, matching kinds one direct call — no per-event
        trampoline through a generic subscriber.  A kind registered
        twice chains both handlers in registration order.
        """
        for kind, handler in handlers.items():
            existing = self._fold.get(kind)
            if existing is None:
                self._fold[kind] = handler
            else:
                def chained(data, _first=existing, _second=handler):
                    _first(data)
                    _second(data)

                self._fold[kind] = chained

    # ------------------------------------------------------------------
    # access & replay
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return (TraceEvent(*item) for item in self._events)

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """Retained events, optionally filtered by ``kind``."""
        if kind is None:
            return [TraceEvent(*item) for item in self._events]
        return [
            TraceEvent(*item) for item in self._events if item[2] == kind
        ]

    def clear(self) -> None:
        self._cleared += len(self._events)
        self._events.clear()

    def to_records(self) -> List[Dict[str, object]]:
        """JSON-friendly dicts, one per retained event, in order."""
        return [
            {"seq": seq, "time": time, "kind": kind, **data}
            for seq, time, kind, data in self._events
        ]

    def to_jsonl(self) -> str:
        """One JSON object per line, prefixed with a schema header line."""
        lines = [json.dumps({"schema_version": SCHEMA_VERSION})]
        lines.extend(json.dumps(rec) for rec in self.to_records())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_records(
        cls, records: Iterable[Dict[str, object]]
    ) -> "TraceBus":
        """Rebuild a bus (capacity-unbounded) from exported records."""
        bus = cls(capacity=None)
        for rec in records:
            rec = dict(rec)
            seq = int(rec.pop("seq"))
            time = float(rec.pop("time"))
            kind = str(rec.pop("kind"))
            bus._events.append((seq, time, kind, rec))
            bus._seq = max(bus._seq, seq + 1)
        return bus

    @classmethod
    def from_jsonl(cls, text: str) -> "TraceBus":
        """Inverse of :meth:`to_jsonl`; validates the schema header."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            return cls(capacity=None)
        header = json.loads(lines[0])
        if "schema_version" in header:
            version = header["schema_version"]
            if version != SCHEMA_VERSION:
                raise ValueError(
                    f"trace schema version {version} != {SCHEMA_VERSION}"
                )
            lines = lines[1:]
        return cls.from_records(json.loads(line) for line in lines)


#: Shared disabled bus: the default for every instrumented component.
NULL_BUS = TraceBus(capacity=0, enabled=False)
