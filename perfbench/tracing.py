"""Timing wrappers for the benchmark's traced run.

A traced run patches public functions of each layer *where their
caller looks them up* (``server.py`` imports ``build_request_instance``
by name, so the wrapper goes on that name in ``server.py``), records a
span per call and removes the patches afterwards.  Nothing under
``src/`` knows about it.

A span is ``(name, start, end, span_id, parent_id, request_id)`` with
``perf_counter`` times, which on Linux read the system-wide monotonic
clock, so spans from the client and the server process line up.  The
parent is the innermost enclosing span of the same task or thread,
tracked through a context variable (asyncio tasks and
``asyncio.to_thread`` both carry it along).  Spans stay in memory and
are written out once, at the end.

Very hot, very short calls (``GpuDevice.pending_work``) are tallied as
call counts and total time instead of spans.
"""

from __future__ import annotations

import contextvars
import itertools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Recorder",
    "coverage",
    "request_id_of",
    "self_time_summary",
    "self_times",
    "union_length",
]

_current: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)

Span = Tuple[str, float, float, int, Optional[int], Optional[str]]


def request_id_of(record: object) -> Optional[str]:
    """The request id carried by a wire record, if any.

    Admission requests nest it (``{"op": "admit", "request": {...}}``),
    responses carry it at the top level.
    """
    if not isinstance(record, dict):
        return None
    rid = record.get("request_id")
    if rid is None and isinstance(record.get("request"), dict):
        rid = record["request"].get("request_id")
    return None if rid is None else str(rid)


class Recorder:
    """Spans, tallies and samples of one process's traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def tally(self, name: str, seconds: float = 0.0) -> None:
        self.counts[name] += 1
        self.seconds[name] += seconds

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def clear(self) -> None:
        """Drop everything recorded so far; patches stay installed."""
        self.spans.clear()
        self.counts.clear()
        self.seconds.clear()
        self.samples.clear()

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """A span around a block of the caller's own code; spans
        recorded inside it become its children."""
        span_id, parent = next(self._ids), _current.get()
        token = _current.set(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            _current.reset(token)
            self.spans.append((name, start, end, span_id, parent, None))

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner: object, attr: str,
              make: Callable[[object], object]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until
        :meth:`unpatch_all`.  On a class the raw descriptor is passed
        (a ``classmethod`` or ``property`` object)."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def timed(
        self,
        name: "str | Callable[[tuple, dict], str]",
        rid: Optional[Callable[[tuple, dict, object], Optional[str]]] = None,
        after: Optional[Callable[[tuple, dict, object, float, float], None]]
        = None,
    ) -> Callable[[Callable], Callable]:
        """Decorator factory: a synchronous span per call.

        ``name`` may depend on the arguments; ``rid`` extracts the
        request id; ``after(args, kwargs, result, start, end)`` records
        extra samples once the call returned.
        """
        spans, ids = self.spans, self._ids

        def wrap(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                span_id = next(ids)
                parent = _current.get()
                token = _current.set(span_id)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    _current.reset(token)
                label = name if isinstance(name, str) else name(args, kwargs)
                spans.append((
                    label, start, end, span_id, parent,
                    rid(args, kwargs, result) if rid else None,
                ))
                if after is not None:
                    after(args, kwargs, result, start, end)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return wrap

    def timed_async(
        self,
        name: str,
        rid: Optional[Callable[[tuple, dict, object], Optional[str]]] = None,
        after: Optional[Callable[[tuple, dict, object, float, float], None]]
        = None,
    ) -> Callable[[Callable], Callable]:
        """Like :meth:`timed` for coroutine functions; the span covers
        the whole await, waiting included."""
        spans, ids = self.spans, self._ids

        def wrap(fn: Callable) -> Callable:
            async def wrapper(*args, **kwargs):
                span_id = next(ids)
                parent = _current.get()
                token = _current.set(span_id)
                start = perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    _current.reset(token)
                spans.append((
                    name, start, end, span_id, parent,
                    rid(args, kwargs, result) if rid else None,
                ))
                if after is not None:
                    after(args, kwargs, result, start, end)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return wrap

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "seconds": dict(self.seconds),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: Path) -> "Recorder":
        record = json.loads(path.read_text())
        rec = cls()
        rec.spans = [tuple(s) for s in record["spans"]]
        rec.counts.update(record["counts"])
        rec.seconds.update(record["seconds"])
        for key, values in record["samples"].items():
            rec.samples[key] = values
        return rec


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def union_length(intervals: Sequence[Tuple[float, float]],
                 lo: float = float("-inf"),
                 hi: float = float("inf")) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, Tuple[int, float, float]]:
    """Per span name: ``(calls, inclusive seconds, self seconds)``.

    Self time is a span's duration minus the part of it covered by its
    child spans.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _name, start, end, _sid, parent, _rid in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: Dict[str, List[float]] = {}
    for name, start, end, sid, _parent, _rid in spans:
        inner = children.get(sid)
        covered = union_length(inner, start, end) if inner else 0.0
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += (end - start) - covered
    return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}


def self_time_summary(spans: Sequence[Span], per: int, top: int = 8) -> str:
    """The ``top`` span names by self time, in ms per ``per`` units."""
    rows = sorted(self_times(spans).items(), key=lambda kv: -kv[1][2])
    return " ".join(
        f"{name}={own / max(per, 1) * 1e3:.3f}"
        for name, (_calls, _inclusive, own) in rows[:top]
    )


def coverage(client: Dict[str, Tuple[float, float]],
             server: Sequence[Span]) -> float:
    """Mean share of each request's client wall time that server-side
    spans of the same request cover (0.0 with no requests)."""
    by_rid: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for _name, start, end, _sid, _parent, rid in server:
        if rid is not None:
            by_rid[rid].append((start, end))
    shares = []
    for rid, (sent, received) in client.items():
        wall = received - sent
        if wall > 0:
            shares.append(
                union_length(by_rid.get(rid, ()), sent, received) / wall
            )
    return sum(shares) / len(shares) if shares else 0.0
