"""Profiling hooks for the reproduction's hot paths.

The hot paths — the MCKP dynamic program (scratch and delta) and the
simulation loop — carry probe call sites.  When no profiler is active (the default) a
probe is a shared reusable no-op context manager: one module-global
load, one ``is None`` branch, zero allocation.  When a
:class:`Profiler` is installed (``set_profiler`` or the
:func:`profiled` context manager) every probe records wall-clock
duration into per-name aggregate stats.

Probes deliberately sit around *coarse* units (one solver call, one
``run_until``), never inside per-event loops, so even an active
profiler does not distort what it measures.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, TypeVar

__all__ = [
    "ProbeStats",
    "Profiler",
    "probe",
    "profile_calls",
    "maybe_profiled",
    "set_profiler",
    "get_profiler",
    "profiled",
]

F = TypeVar("F", bound=Callable)


class ProbeStats:
    """Aggregate timings of one probe name."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        if duration < self.min:
            self.min = duration
        if duration > self.max:
            self.max = duration

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
        }


class Profiler:
    """Collects probe timings by name."""

    def __init__(self) -> None:
        self.stats: Dict[str, ProbeStats] = {}

    def record(self, name: str, duration: float) -> None:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = ProbeStats()
        stats.record(duration)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start)

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            name: stats.snapshot()
            for name, stats in sorted(self.stats.items())
        }


class _NullContext:
    """Reusable zero-cost context manager for inactive probes."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()
_active: Optional[Profiler] = None


def set_profiler(profiler: Optional[Profiler]) -> None:
    """Install (or with ``None`` remove) the process-wide profiler."""
    global _active
    _active = profiler


def get_profiler() -> Optional[Profiler]:
    return _active


def probe(name: str):
    """Context manager timing ``name`` on the active profiler (if any)."""
    active = _active
    if active is None:
        return _NULL_CONTEXT
    return active.time(name)


def profile_calls(name: str) -> Callable[[F], F]:
    """Decorator form of :func:`probe` for whole-function hot sections.

    With no active profiler the wrapper is a global load, an ``is
    None`` branch and a tail call — suitable for functions called per
    decision (solvers, feasibility tests), not per simulation event.
    """

    def decorate(fn: F) -> F:
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active = _active
            if active is None:
                # Disabled path: no perf_counter pair, no context
                # manager, no try/finally — a branch and a tail call.
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                active.record(name, perf_counter() - start)

        return wrapper  # type: ignore[return-value]

    return decorate


class _ActiveProfile:
    """Context manager installing a profiler as the process-wide one."""

    __slots__ = ("profiler", "_previous")

    def __init__(self, profiler: Profiler) -> None:
        self.profiler = profiler

    def __enter__(self) -> Profiler:
        self._previous = get_profiler()
        set_profiler(self.profiler)
        return self.profiler

    def __exit__(self, *exc) -> bool:
        set_profiler(self._previous)
        return False


def maybe_profiled(profiler: Optional[Profiler]):
    """Activate ``profiler`` for a block; no-op context when ``None``."""
    if profiler is None:
        return _NULL_CONTEXT
    return _ActiveProfile(profiler)


@contextmanager
def profiled(profiler: Optional[Profiler] = None) -> Iterator[Profiler]:
    """Activate a profiler for the duration of the block.

    >>> from repro.observability import profiled
    >>> with profiled() as prof:
    ...     pass  # run solvers / simulations here
    >>> isinstance(prof.to_dict(), dict)
    True
    """
    owned = profiler if profiler is not None else Profiler()
    previous = get_profiler()
    set_profiler(owned)
    try:
        yield owned
    finally:
        set_profiler(previous)
