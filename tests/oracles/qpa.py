"""Quick Processor-demand Analysis (QPA, Zhang & Burns 2009).

An alternative exact EDF feasibility test to the forward checkpoint
enumeration in :func:`repro.core.dbf.processor_demand_test`.  Instead of
visiting every dbf step point below the busy-period bound, QPA iterates
*backwards* from the bound:

    t   <- max{ d_k : d_k < L }          (largest deadline below L)
    loop:
        h <- dbf(t)
        if h > t:        infeasible (violation at t)
        elif h < t:      t <- h          (jump — skips all points in (h, t])
        else:            t <- max{ d_k : d_k < t }
    until t < d_min     (feasible)

On task sets with many dbf points QPA touches only a small fraction of
them.  Both tests must agree exactly: this module is a test oracle, and
the test suite cross-validates the two on random stream sets.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from repro.core.dbf import (
    ProcessorDemandResult,
    dbf_sporadic,
    demand_horizon,
    last_step,
)
from repro.observability.profiling import profile_calls

__all__ = ["qpa_test", "clear_qpa_cache"]

#: Memo of ``(streams, horizon) -> result`` mirroring the
#: :func:`repro.core.dbf.processor_demand_test` cache; the result is a
#: frozen dataclass safe to share.
_QPA_CACHE: "OrderedDict[tuple, ProcessorDemandResult]" = OrderedDict()
_QPA_CACHE_MAX = 4096


def clear_qpa_cache() -> None:
    """Drop all memoized :func:`qpa_test` results."""
    _QPA_CACHE.clear()


def _total_dbf(
    streams: Sequence[Tuple[float, float, float]], t: float
) -> float:
    return sum(dbf_sporadic(w, p, d, t) for w, p, d in streams)


def _largest_deadline_below(
    streams: Sequence[Tuple[float, float, float]], t: float
) -> Optional[float]:
    """max{ D + k·T : D + k·T < t } over all streams, or None.

    Step points are the checkpoint expression ``D + k * T`` of
    :func:`~repro.core.dbf.last_step`, so ``dbf_sporadic`` counts the
    job whose step a returned point is.
    """
    below = math.nextafter(t, -math.inf)
    best: Optional[float] = None
    for _, period, deadline in streams:
        if deadline >= t:
            continue
        candidate = deadline + last_step(period, deadline, below) * period
        if best is None or candidate > best:
            best = candidate
    return best


@profile_calls("core.qpa")
def qpa_test(
    streams: Sequence[Tuple[float, float, float]],
    horizon: Optional[float] = None,
) -> ProcessorDemandResult:
    """Exact EDF feasibility of sporadic streams via QPA.

    Parameters mirror :func:`repro.core.dbf.processor_demand_test`:
    ``streams`` is a list of ``(wcet, period, deadline)`` triples.
    Returns the same :class:`ProcessorDemandResult` type; the
    ``critical_time`` of an infeasible result is the violating window
    length QPA stopped at.  Results are memoized per ``(streams,
    horizon)`` — see :func:`clear_qpa_cache`.
    """
    key = (
        tuple((float(w), float(p), float(d)) for w, p, d in streams),
        None if horizon is None else float(horizon),
    )
    cached = _QPA_CACHE.get(key)
    if cached is not None:
        _QPA_CACHE.move_to_end(key)
        return cached
    result = _qpa_impl(list(streams), horizon)
    _QPA_CACHE[key] = result
    if len(_QPA_CACHE) > _QPA_CACHE_MAX:
        _QPA_CACHE.popitem(last=False)
    return result


def _qpa_impl(
    streams: List[Tuple[float, float, float]],
    horizon: Optional[float],
) -> ProcessorDemandResult:
    streams = [s for s in streams if s[0] > 0]
    if not streams:
        return ProcessorDemandResult(True, 0.0, 0.0, math.inf, 0)
    for wcet, period, deadline in streams:
        if period <= 0 or deadline <= 0:
            raise ValueError(
                f"invalid stream (C={wcet}, T={period}, D={deadline})"
            )

    default_horizon, overloaded = demand_horizon(streams)
    if horizon is None:
        horizon = default_horizon

    min_deadline = min(d for _, _, d in streams)
    iterations = 0

    t = _largest_deadline_below(streams, horizon + 1e-12)
    if t is None:
        return ProcessorDemandResult(not overloaded, 0.0, 0.0, math.inf, 0)

    margin = math.inf
    tightest_t = t
    tightest_demand = 0.0
    while t is not None and t >= min_deadline - 1e-12:
        iterations += 1
        demand = _total_dbf(streams, t)
        slack = t - demand
        if slack < margin:
            margin = slack
            tightest_t = t
            tightest_demand = demand
        if demand > t + 1e-9:
            return ProcessorDemandResult(
                feasible=False,
                critical_time=t,
                demand=demand,
                margin=slack,
                checkpoints_tested=iterations,
            )
        if demand < t - 1e-12:
            t = demand if demand >= min_deadline else None
            if t is not None:
                # demand may not be a step point; snap to the largest
                # deadline at or below it (dbf is flat in between)
                snapped = _largest_deadline_below(streams, t + 1e-12)
                t = snapped
        else:  # demand == t exactly: step to the next point below
            t = _largest_deadline_below(streams, t)

    return ProcessorDemandResult(
        feasible=not overloaded,
        critical_time=tightest_t,
        demand=tightest_demand,
        margin=margin,
        checkpoints_tested=iterations,
    )
