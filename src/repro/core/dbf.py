"""Demand bound functions for local and offloaded sporadic tasks.

The paper's feasibility argument (Theorems 1–3) rests on linear upper
bounds of the demand bound function (dbf).  This module provides:

* the **exact** dbf of a sporadic task (Baruah–Mok–Rosier) used for
  locally executed tasks;
* the paper's **Theorem 1 linear bound** for offloaded (split) tasks and
  the **Theorem 2 bound** (= plain utilization bound) for local tasks;
* a **step-function dbf for split offloaded tasks** that is tighter than
  the Theorem 1 line, obtained by analyzing the setup and compensation
  sub-job streams separately — used by the A3 pessimism ablation;
* a **processor-demand feasibility test** (forward checkpoint
  enumeration) that works with any collection of dbf curves.

All dbfs follow the windowed definition of §5.1: ``dbf(τ, t)`` is the
maximum execution demand of sub-jobs of ``τ`` that both arrive in and
have their absolute deadline within any interval of length ``t``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .deadlines import SubJobDeadlines, split_deadlines
from .task import OffloadableTask, Task

__all__ = [
    "dbf_sporadic",
    "dbf_local_linear_bound",
    "dbf_offloaded_linear_bound",
    "dbf_offloaded_steps",
    "demand_checkpoints",
    "demand_horizon",
    "ProcessorDemandResult",
    "processor_demand_test",
    "clear_demand_cache",
]


# ----------------------------------------------------------------------
# exact sporadic dbf (Baruah, Mok, Rosier 1990)
# ----------------------------------------------------------------------
def last_step(period: float, deadline: float, t: float) -> int:
    """The largest ``k`` with ``deadline + k * period <= t`` (``-1`` if
    none), the step points evaluated exactly as
    :func:`demand_checkpoints` generates them.

    ``floor((t − D)/T)`` alone can land one step short at a checkpoint
    (its float quotient rounds below the integer), dropping the very
    job whose step made the checkpoint; the two loops settle ``k``
    against the checkpoint expression itself.
    """
    if t < deadline:
        return -1
    k = math.floor((t - deadline) / period)
    while deadline + (k + 1) * period <= t:
        k += 1
    while k > 0 and deadline + k * period > t:
        k -= 1
    return k


def dbf_sporadic(wcet: float, period: float, deadline: float, t: float) -> float:
    """Exact dbf of a sporadic task in a window of length ``t``.

    ``dbf(t) = max(0, floor((t − D)/T) + 1) · C``, counting the job of
    every step point ``D + k·T <= t`` (see :func:`last_step`).
    """
    if t < deadline:
        return 0.0
    return (last_step(period, deadline, t) + 1) * wcet


# ----------------------------------------------------------------------
# the paper's linear bounds
# ----------------------------------------------------------------------
def dbf_local_linear_bound(task: Task, t: float) -> float:
    """Theorem 2: ``dbf(τ_i, t) ≤ (C_i/T_i)·t`` for implicit deadlines.

    For constrained deadlines the linear bound uses the density
    ``C_i/D_i`` instead, which remains a sound upper bound.
    """
    rate = task.wcet / min(task.period, task.deadline)
    return rate * t


def dbf_offloaded_linear_bound(
    task: OffloadableTask, response_time: float, t: float
) -> float:
    """Theorem 1: ``dbf(τ_i, t) ≤ ((C_{i,1}+C_{i,2})/(D_i−R_i))·t``."""
    return task.offload_demand_rate(response_time) * t


# ----------------------------------------------------------------------
# tighter step dbf for the split sub-job streams
# ----------------------------------------------------------------------
def dbf_offloaded_steps(
    task: OffloadableTask, response_time: float, t: float
) -> float:
    """Step-function dbf upper bound for a split offloaded task.

    The setup sub-jobs form a sporadic stream ``(C_{i,1}, T_i, D_{i,1})``.
    Each compensation sub-job must complete inside a window of length at
    least ``D_i − D_{i,1} − R_i`` (it is triggered no later than
    ``t + D_{i,1} + R_i`` and due at ``t + D_i``), and consecutive
    compensation sub-jobs are separated by at least ``T_i``; so the
    compensation stream is dominated by a sporadic stream
    ``(C_{i,2}, T_i, D_i − D_{i,1} − R_i)``.

    Summing the two exact sporadic dbfs is a *sound* upper bound (each
    job contributes at most one sub-job to each stream), but note it is
    **not** pointwise below the Theorem 1 line: at window lengths just
    above ``max(D_{i,1}, D_i−D_{i,1}−R_i)`` it counts both sub-jobs of
    one job even though jointly they need a window of ``D_i − R_i``.
    Its long-window slope, however, is the *utilization*
    ``(C_{i,1}+C_{i,2})/T_i`` — strictly below the line's density slope
    whenever ``R_i > 0``.  The refined schedulability test therefore
    uses ``min(step bound, Theorem 1 line)``, which is sound (min of two
    sound bounds) and dominates the line everywhere; the A3 ablation
    quantifies the resulting acceptance gap.
    """
    split: SubJobDeadlines = split_deadlines(task, response_time)
    setup_demand = dbf_sporadic(
        split.setup_wcet, task.period, split.setup_deadline, t
    )
    comp_window = split.compensation_budget
    comp_demand = dbf_sporadic(
        split.compensation_wcet, task.period, comp_window, t
    )
    return setup_demand + comp_demand


# ----------------------------------------------------------------------
# processor-demand feasibility test
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessorDemandResult:
    """Outcome of :func:`processor_demand_test`.

    ``feasible`` is the verdict; ``critical_time``/``demand`` identify the
    first violated checkpoint (when infeasible) or the tightest one (when
    feasible).  ``margin`` is ``min_t (t − demand(t))`` over the checked
    points — how much slack the task set has at its tightest window.
    """

    feasible: bool
    critical_time: float
    demand: float
    margin: float
    checkpoints_tested: int

    def __bool__(self) -> bool:
        return self.feasible


def demand_checkpoints(
    deadlines_and_periods: Sequence[Tuple[float, float]], horizon: float
) -> List[float]:
    """All absolute dbf step points ``D + k·T ≤ horizon`` for each stream.

    These are the only window lengths at which any exact sporadic dbf
    increases, hence the only candidates for a demand violation.  Each
    point is computed as ``D + k * T`` (never by accumulating ``T``), the
    expression :func:`dbf_sporadic` counts jobs against.
    """
    points = set()
    for deadline, period in deadlines_and_periods:
        k = 0
        while deadline + k * period <= horizon:
            points.add(deadline + k * period)
            k += 1
    return sorted(points)


#: Utilizations within this distance of 1 get :func:`demand_horizon`'s
#: short fallback window instead of a busy-period bound.
_NEAR_FULL = 1e-9


def demand_horizon(
    streams: Sequence[Tuple[float, float, float]],
) -> Tuple[float, bool]:
    """``(horizon, overloaded)`` for ``(wcet, period, deadline)`` streams.

    ``overloaded`` is the exact (rational) test ``U > 1``: demand then
    outgrows every window, so the set is infeasible.  The horizon is a
    window length a demand test must scan to:

    * ``U < 1 − 1e-9``: for ``t >= max(D)``, ``demand(t)`` is at most
      ``U·t + ΣC`` and at most ``U·t + Σ(T−D)·U_i``, so ``demand(t) > t``
      needs ``t < min(ΣC, Σ(T−D)·U_i)/(1−U)`` — no violation lies
      beyond it.  The bound is computed exactly and rounded up.
    * otherwise no short sound bound exists (both lines grow as
      ``1/|1−U|``: a float ``U`` a rounding step from 1 would ask for
      ~1e16 checkpoints), so a few periods past the largest deadline
      are examined, enough in practice.  ``U > 1`` is still rejected
      through ``overloaded``; a set with ``U`` in ``[1 − 1e-9, 1]``
      whose first violation lies past that window would be accepted.
    """
    max_deadline = max(d for _, _, d in streams)
    exact = [(Fraction(w), Fraction(p), Fraction(d)) for w, p, d in streams]
    utilization = sum(w / p for w, p, _ in exact)
    if utilization < 1 - _NEAR_FULL:
        offset = min(
            sum(w for w, _, _ in exact),
            sum((p - d) * w / p for w, p, d in exact),
        )
        horizon = math.nextafter(float(offset / (1 - utilization)), math.inf)
        return max(horizon, max_deadline), False
    max_period = max(p for _, p, _ in streams)
    return max_deadline + 2.0 * max_period * len(streams), utilization > 1


#: Memo of ``(streams, horizon) -> result``.  The runtime loops
#: (adaptive re-decision, health monitoring, repeated Theorem-3 checks
#: over an unchanged believed task set) re-ask the same feasibility
#: question many times; results are frozen dataclasses, so sharing one
#: instance across callers is safe.  ``extra_demand`` callables are not
#: canonicalizable and bypass the cache.
_DEMAND_CACHE: "OrderedDict[tuple, ProcessorDemandResult]" = OrderedDict()
_DEMAND_CACHE_MAX = 4096


def clear_demand_cache() -> None:
    """Drop all memoized :func:`processor_demand_test` results."""
    _DEMAND_CACHE.clear()


def processor_demand_test(
    streams: Iterable[Tuple[float, float, float]],
    horizon: Optional[float] = None,
    extra_demand: Optional[Callable[[float], float]] = None,
) -> ProcessorDemandResult:
    """EDF feasibility by checkpointed processor-demand analysis.

    Results are memoized per ``(streams, horizon)`` across unchanged
    task sets (see :data:`_DEMAND_CACHE`); pass ``extra_demand`` or call
    :func:`clear_demand_cache` to bypass/reset.

    Parameters
    ----------
    streams:
        ``(wcet, period, deadline)`` triples, one per sporadic sub-job
        stream.  A split offloaded task contributes its two streams (see
        :func:`dbf_offloaded_steps`).
    horizon:
        Largest window length to examine.  Defaults to
        :func:`demand_horizon`: a sound busy-period bound unless ``U``
        is within 1e-9 of 1.  A
        set with ``U > 1`` is infeasible whatever the horizon; if no
        checkpoint in it is violated beyond the tolerance, the result
        names the tightest one.
    extra_demand:
        Optional additional demand curve (e.g. a linear term for tasks
        only characterized by the Theorem 1 bound) added at every
        checkpoint.

    Returns a :class:`ProcessorDemandResult`.
    """
    streams = list(streams)
    if extra_demand is None:
        key = (
            tuple((float(w), float(p), float(d)) for w, p, d in streams),
            None if horizon is None else float(horizon),
        )
        cached = _DEMAND_CACHE.get(key)
        if cached is not None:
            _DEMAND_CACHE.move_to_end(key)
            return cached
        result = _processor_demand_impl(streams, horizon, None)
        _DEMAND_CACHE[key] = result
        if len(_DEMAND_CACHE) > _DEMAND_CACHE_MAX:
            _DEMAND_CACHE.popitem(last=False)
        return result
    return _processor_demand_impl(streams, horizon, extra_demand)


def _processor_demand_impl(
    streams: List[Tuple[float, float, float]],
    horizon: Optional[float],
    extra_demand: Optional[Callable[[float], float]],
) -> ProcessorDemandResult:
    if not streams:
        return ProcessorDemandResult(True, 0.0, 0.0, math.inf, 0)
    for wcet, period, deadline in streams:
        if wcet < 0 or period <= 0 or deadline <= 0:
            raise ValueError(
                f"invalid stream (C={wcet}, T={period}, D={deadline})"
            )

    default_horizon, overloaded = demand_horizon(streams)
    if horizon is None:
        horizon = default_horizon

    checkpoints = demand_checkpoints(
        [(d, p) for _, p, d in streams], horizon
    )
    margin = math.inf
    tightest_t = 0.0
    tightest_demand = 0.0
    for t in checkpoints:
        demand = sum(dbf_sporadic(w, p, d, t) for w, p, d in streams)
        if extra_demand is not None:
            demand += extra_demand(t)
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
                checkpoints_tested=len(checkpoints),
            )
    return ProcessorDemandResult(
        feasible=not overloaded,
        critical_time=tightest_t,
        demand=tightest_demand,
        margin=margin,
        checkpoints_tested=len(checkpoints),
    )
