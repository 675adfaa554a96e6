"""The service's degradation ladder: exact → heuristic → local-only.

Under light load every admission request deserves the exact DP.  Under
overload the queue grows faster than exact solves drain it, and the
right trade is to answer *more cheaply*, never *less safely*:

``EXACT``
    The capacity-quantized DP (:func:`repro.knapsack.solve_dp`),
    cache- and delta-backed.  Optimal under quantization.
``HEURISTIC``
    Khan's HEU-OE greedy (:func:`repro.knapsack.solve_heu_oe`),
    ``O(n log n)`` per request.  Possibly sub-optimal *benefit*, never
    unsafe: its selection is Theorem-3-verified like any other.
``LOCAL_ONLY``
    No solver at all — every task is admitted at its local point iff
    the all-local configuration passes Theorem 3.  Constant work.

Safety invariant (tested property-based): **no rung ever admits an
unsafe task set, and no rung rejects a set the exact path would
admit.**  The exact DP rejects an instance iff even its lightest
selection exceeds the (ceil-quantized) budget; HEU-OE's start point
*is* the all-lightest selection and the local-only rung admits only
when the all-local selection — one particular selection of the exact
instance — fits.  The sole asymmetry is the quantization boundary:
the ceil-quantized DP is pessimistic by at most one capacity unit per
class, so a degraded rung may admit a borderline set (true weight
within that slack of the capacity) that the quantized DP rejects —
and there, as everywhere, the admission only leaves the service after
passing the Theorem 3 test outright.

Rung selection combines two signals:

* **queue pressure** — occupancy watermarks over the bounded request
  queue (this module);
* **server health** — per-server circuit breakers
  (:class:`repro.runtime.health.CircuitBreaker`): an open breaker
  removes that server from the request's allowed set, which degrades
  *routing* without touching the solver rung.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

__all__ = ["DegradationLevel", "DegradationPolicy"]


class DegradationLevel(IntEnum):
    """Ladder rungs, ordered by increasing degradation."""

    EXACT = 0
    HEURISTIC = 1
    LOCAL_ONLY = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class DegradationPolicy:
    """Queue-occupancy watermarks driving the ladder.

    With queue depth ``d`` and capacity ``c``:

    * ``d/c < heuristic_watermark`` → :attr:`DegradationLevel.EXACT`;
    * ``heuristic_watermark ≤ d/c < local_watermark`` →
      :attr:`DegradationLevel.HEURISTIC`;
    * ``d/c ≥ local_watermark`` → :attr:`DegradationLevel.LOCAL_ONLY`.

    The defaults keep the exact DP until the queue is half full and
    only drop to local-only when it is nearly saturated (the rung just
    below shedding, which the bounded queue handles).
    """

    heuristic_watermark: float = 0.5
    local_watermark: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.heuristic_watermark <= 1.0:
            raise ValueError("heuristic_watermark must be in (0, 1]")
        if not self.heuristic_watermark <= self.local_watermark <= 1.0:
            raise ValueError(
                "local_watermark must be in [heuristic_watermark, 1]"
            )

    def level_for(self, queue_depth: int, capacity: int) -> DegradationLevel:
        """The rung for the current queue occupancy."""
        if queue_depth < 0:
            raise ValueError("queue_depth must be non-negative")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        occupancy = queue_depth / capacity
        if occupancy >= self.local_watermark:
            return DegradationLevel.LOCAL_ONLY
        if occupancy >= self.heuristic_watermark:
            return DegradationLevel.HEURISTIC
        return DegradationLevel.EXACT
