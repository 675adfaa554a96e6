"""Accounting shared by every workload: latency summaries, failure
shares, output digests and the host-speed calibration loop.

Kept free of I/O and of the service so the benchmark's own tests can
pin the arithmetic directly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, Sequence

from repro.service.audit import percentile

__all__ = [
    "Outcome",
    "calibrate_ms",
    "digest",
    "latency_summary",
    "median",
]


def median(values: Sequence[float]) -> float:
    """The 50th percentile (linear interpolation); 0.0 when empty."""
    return percentile(values, 50)


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """p50 and p99 in milliseconds, with the sample count behind them.

    A p99 is only meaningful with at least 1000 samples (ten beyond
    it); ``n`` is reported so a reader can tell.
    """
    return {
        "p50_ms": percentile(seconds, 50) * 1000.0,
        "p99_ms": percentile(seconds, 99) * 1000.0,
        "n": len(seconds),
    }


@dataclass
class Outcome:
    """What one timed phase attempted and how much of it failed.

    ``shed`` are requests the service refused under backpressure,
    ``errors`` requests that never got an answer, ``anomalies`` answers
    that failed a correctness check.  Every one of them counts against
    the attempts; only the rest is goodput.
    """

    attempted: int = 0
    shed: int = 0
    errors: int = 0
    anomalies: int = 0

    def __add__(self, other: "Outcome") -> "Outcome":
        return Outcome(
            self.attempted + other.attempted,
            self.shed + other.shed,
            self.errors + other.errors,
            self.anomalies + other.anomalies,
        )

    @property
    def failed(self) -> int:
        return self.shed + self.errors + self.anomalies

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def good(self) -> int:
        return max(0, self.attempted - self.failed)


def digest(records: Iterable[object]) -> str:
    """A short stable hash of JSON-able records, in order.

    Two commits whose outputs hash alike produced the same outputs,
    the rule for any change that claims to be speed only.
    """
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def calibrate_ms(rounds: int = 5, size: int = 200_000) -> float:
    """Median milliseconds of a fixed pure-Python loop.

    The loop never changes, so a run whose calibration reads slow ran
    on a slow host, not on slow code.
    """
    times = []
    for _ in range(rounds):
        started = perf_counter()
        acc = 0
        for i in range(size):
            acc += i * i % 7
        times.append((perf_counter() - started) * 1000.0)
    return median(times)
