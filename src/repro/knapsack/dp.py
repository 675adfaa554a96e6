"""Pseudo-polynomial dynamic programming for the MCKP (paper §5.2).

The paper adopts the exact DP of Dudzinski & Walukiewicz ("Exact methods
for the knapsack problem and its generalizations", EJOR 1987).  That DP
runs over an *integer* capacity; the ODM instances have real-valued
weights (task densities), so we quantize:

* the capacity is divided into ``resolution`` integer units;
* each item weight is rounded **up** to whole units.

Rounding up keeps the solver *sound* — any selection the DP deems
feasible has true weight ≤ capacity — at the cost of possibly missing
solutions whose true weight fits only within the last
``capacity/resolution`` sliver.  With the default resolution of 20 000
the quantization error per item is ≤ 0.005 % of the budget, far below the
modelling noise of the response-time estimates.  Instances whose weights
are already integral multiples of ``capacity/resolution`` are solved
exactly, which the tests exploit by comparing against brute force.

Algorithms
----------
:func:`solve_dp` runs two exact algorithms over the same quantized
instance and picks between them dynamically:

* **Sparse Pareto-frontier DP** (primary).  Each DP layer is the list of
  Pareto-optimal ``(weight, value)`` states — weight strictly increasing,
  value strictly increasing.  Extending a layer by one class is a numpy
  broadcast (``frontier ⊕ items``) followed by a lexsort and a strict
  running-max prune.  The frontier on ODM instances stays a few hundred
  points, so each layer costs ``O(Q_i · |frontier|)`` instead of
  ``O(Q_i · resolution)`` — an order of magnitude less work at the
  default resolution.
* **Dense vectorized DP** (fallback).  The classic table, with the row
  recurrence batched in numpy: per item one shifted slice-add of the
  previous layer, candidates reduced with a single ``argmax`` that also
  yields the compact per-layer choice row.  Used when the frontier grows
  past :data:`_SPARSE_CANDIDATE_FACTOR` times the capacity grid, where
  the dense table is cheaper.

Both reconstruct the argmax through per-layer choice records; the
predecessor weight is implicit (``w − w_item``), so no ``pred`` table is
stored.  Dominated items are pruned per class before either algorithm
runs (:func:`repro.knapsack.mckp.prune_dominated` — sound because
ceil-quantization is monotone in weight).

:func:`solve_dp_reference` preserves the original semi-vectorized
row-masking implementation verbatim.  It is the differential-testing
oracle for the optimized paths and the baseline the perf benchmark
(`benchmarks/bench_perf.py`) measures speedups against.

Complexity: ``O(Σ Q_i · min(|frontier|·log, resolution))`` time,
``O(n · resolution)`` worst-case space for the dense choice table.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..observability.profiling import profile_calls
from .mckp import MCKPInstance, Selection, prune_dominated

__all__ = ["solve_dp", "solve_dp_reference", "values_close"]

_NEG_INF = -np.inf

#: Switch from the sparse frontier to the dense table when a layer would
#: generate more than this many candidates per capacity unit.  The dense
#: layer costs ~``Q_i · resolution``; the sparse layer costs
#: ~``Q_i · |frontier| · log``, so past a few multiples of the grid the
#: dense table wins.
_SPARSE_CANDIDATE_FACTOR = 4


def _quantize_weight(weight: float, unit: float) -> int:
    """Round a weight up to integer units, tolerating float dust.

    The snap-to-nearest tolerance is *relative* (scaled by the magnitude
    of the quotient): an absolute ``1e-9`` window would swallow real
    fractional parts once ``weight/unit`` reaches ~1e9 and stop snapping
    genuine integer multiples whose representation error exceeds the
    window at large magnitudes.
    """
    units = weight / unit
    nearest = round(units)
    if abs(units - nearest) <= 1e-9 * max(1.0, abs(units)):
        return int(nearest)
    return int(math.ceil(units))


def values_close(a: float, b: float) -> bool:
    """Whether two exact optima agree up to float summation order."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _quantize_weights(weights: np.ndarray, unit: float) -> np.ndarray:
    """Vectorized :func:`_quantize_weight` over an array of weights."""
    units = np.asarray(weights, dtype=np.float64) / unit
    nearest = np.rint(units)
    snapped = np.abs(units - nearest) <= 1e-9 * np.maximum(
        1.0, np.abs(units)
    )
    return np.where(snapped, nearest, np.ceil(units)).astype(np.int64)


def _zero_capacity_selection(instance: MCKPInstance) -> Optional[Selection]:
    """Zero capacity: only all-zero-weight selections can fit."""
    choices = {}
    for cls in instance.classes:
        zero = [
            (item.value, idx)
            for idx, item in enumerate(cls.items)
            if item.weight == 0
        ]
        if not zero:
            return None
        choices[cls.class_id] = max(zero)[1]
    return Selection(instance, choices)


def _prepare_class(
    items, unit: float, resolution: int
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One class's dominance-pruned ``(orig_idx, weight_units, values)``.

    Items whose quantized weight exceeds the whole capacity can never be
    chosen and are dropped; a class left empty is infeasible (``None``).
    Depends only on the item tuple, ``unit`` and ``resolution`` — not on
    the class position or id — which is what lets the delta solver reuse
    prepared arrays across instances keyed by item content alone.
    """
    kept = prune_dominated(items)
    orig = np.array([idx for idx, _ in kept], dtype=np.int64)
    wu = _quantize_weights(
        np.array([item.weight for _, item in kept]), unit
    )
    values = np.array([item.value for _, item in kept])
    fits = wu <= resolution
    if not np.any(fits):
        return None
    return (orig[fits], wu[fits], values[fits])


def _prepare_classes(
    instance: MCKPInstance, unit: float, resolution: int
) -> Optional[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Per class: dominance-pruned ``(orig_idx, weight_units, values)``.

    A class left empty makes the instance infeasible (``None``).
    """
    prepared = []
    for cls in instance.classes:
        prep = _prepare_class(cls.items, unit, resolution)
        if prep is None:
            return None
        prepared.append(prep)
    return prepared


def _sparse_step(
    front_w: np.ndarray,
    front_v: np.ndarray,
    wu: np.ndarray,
    values: np.ndarray,
    resolution: int,
):
    """Extend a Pareto frontier by one class.

    Returns ``(new_w, new_v, item_of_point, parent_of_point)`` or
    ``None`` when no candidate fits (infeasible).  Points keep weight
    strictly increasing and value strictly increasing; ties on value keep
    the lightest point, ties on (weight, value) keep the lowest item
    index — matching the dense table's first-maximal tie-break.
    """
    layer = front_w.shape[0]
    cand_w = (front_w[None, :] + wu[:, None]).ravel()
    cand_v = (front_v[None, :] + values[:, None]).ravel()

    # Candidate (item, parent) pairs stay implicit: flat index
    # ``i·layer + j`` encodes both, recovered by divmod on the few
    # surviving points instead of materialising full index arrays.
    fits = cand_w <= resolution
    if fits.all():
        flat = None
    else:
        flat = np.flatnonzero(fits)
        if flat.size == 0:
            return None
        cand_w, cand_v = cand_w[flat], cand_v[flat]

    # Sort by weight asc, then value desc; lexsort is stable, so ties
    # keep ascending flat order = lowest item index — matching the dense
    # table's first-maximal tie-break.  A point survives iff its value
    # strictly beats every lighter point's.
    order = np.lexsort((-cand_v, cand_w))
    sorted_w = cand_w[order]
    sorted_v = cand_v[order]
    keep = np.empty(sorted_v.shape[0], dtype=bool)
    keep[0] = True
    np.greater(
        sorted_v[1:], np.maximum.accumulate(sorted_v)[:-1], out=keep[1:]
    )
    kept = order[keep]
    if flat is not None:
        kept = flat[kept]
    item, parent = np.divmod(kept, layer)
    return sorted_w[keep], sorted_v[keep], item, parent


def _dense_layers(
    dp: np.ndarray,
    prepared: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    start: int,
    resolution: int,
):
    """Run the dense vectorized DP from layer ``start`` to the end.

    ``dp[w]`` holds the best value at *exact* quantized weight ``w`` for
    the first ``start`` classes.  Returns ``(final_dp, choice_rows)``
    where ``choice_rows[k - start]`` maps each weight to the pruned item
    index chosen at layer ``k`` (-1 = unreachable).  The predecessor
    weight is implicit: ``w − wu[choice]``.
    """
    width = resolution + 1
    choice_rows: List[np.ndarray] = []
    for k in range(start, len(prepared)):
        _, wu, values = prepared[k]
        m = wu.shape[0]
        # Candidate matrix: row j is the previous layer shifted right by
        # the item weight, plus its value.  One argmax over the rows
        # reduces the batch and doubles as the compact choice row.
        cand = np.full((m, width), _NEG_INF)
        for j in range(m):
            shift = int(wu[j])
            cand[j, shift:] = dp[: width - shift] + values[j]
        choice = np.argmax(cand, axis=0).astype(np.int16)
        dp = cand[choice, np.arange(width)]
        choice[dp == _NEG_INF] = -1
        choice_rows.append(choice)
    return dp, choice_rows


@profile_calls("knapsack.dp")
def solve_dp(
    instance: MCKPInstance, resolution: int = 20_000
) -> Optional[Selection]:
    """Solve the MCKP by capacity-quantized dynamic programming.

    Parameters
    ----------
    instance:
        The problem.  Zero-capacity instances are handled (only
        zero-weight selections are feasible).
    resolution:
        Number of integer capacity units.  Higher = tighter quantization,
        linearly more time/space.

    Returns
    -------
    The optimal :class:`Selection` under the quantized weights, or
    ``None`` when no selection fits.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if instance.num_classes == 0:
        return Selection(instance, {})
    if instance.capacity == 0:
        return _zero_capacity_selection(instance)

    unit = instance.capacity / resolution
    prepared = _prepare_classes(instance, unit, resolution)
    if prepared is None:
        return None
    return _run_dp(
        instance,
        prepared,
        resolution,
        np.zeros(1, dtype=np.int64),
        np.zeros(1),
        [],
        None,
        0,
    )


def _run_dp(
    instance: MCKPInstance,
    prepared: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    resolution: int,
    front_w: np.ndarray,
    front_v: np.ndarray,
    history: List[Tuple[np.ndarray, np.ndarray]],
    frontiers: Optional[List[Tuple[np.ndarray, np.ndarray]]],
    start: int,
) -> Optional[Selection]:
    """The DP engine behind :func:`solve_dp`, resumable at any layer.

    ``front_w``/``front_v`` is the sparse Pareto frontier after folding
    classes ``0..start-1``; ``history`` must already hold those layers'
    ``(item, parent)`` records.  A cold solve passes the singleton zero
    frontier with ``start=0``.  The warm-start delta solver
    (:mod:`repro.knapsack.delta`) passes a cached prefix instead — both
    paths then execute *this exact code*, which is what makes
    delta-solve bit-for-bit identical to a from-scratch solve.

    ``history`` (and ``frontiers`` when not ``None``) are mutated in
    place: one ``(item, parent)`` — resp. ``(front_w, front_v)`` —
    entry is appended per sparse layer folded, so after the call they
    describe every sparse layer and can be cached for future resumes.
    Dense-fallback layers are not recorded (not resumable).
    """
    n = len(prepared)
    candidate_limit = _SPARSE_CANDIDATE_FACTOR * (resolution + 1)

    # --- sparse frontier phase -----------------------------------------
    dense_from = n
    for k in range(start, n):
        _, wu, values = prepared[k]
        if wu.shape[0] * front_w.shape[0] > candidate_limit:
            dense_from = k
            break
        step = _sparse_step(front_w, front_v, wu, values, resolution)
        if step is None:
            return None
        front_w, front_v, item, parent = step
        history.append((item, parent))
        if frontiers is not None:
            frontiers.append((front_w, front_v))

    if dense_from == n:
        # Frontier values increase with weight: the last point is the
        # unique optimum at its lightest achievable weight.
        choices = {}
        point = front_w.shape[0] - 1
        for k in range(n - 1, -1, -1):
            item, parent = history[k]
            orig, _, _ = prepared[k]
            choices[instance.classes[k].class_id] = int(orig[item[point]])
            point = int(parent[point])
        return Selection(instance, choices)

    # --- dense fallback phase ------------------------------------------
    dp = np.full(resolution + 1, _NEG_INF)
    dp[front_w] = front_v
    dp, choice_rows = _dense_layers(dp, prepared, dense_from, resolution)
    if not np.any(dp > _NEG_INF):
        return None
    # First maximal index == smallest weight among optimal states.
    best_w = int(np.argmax(dp))

    choices = {}
    w = best_w
    for k in range(n - 1, dense_from - 1, -1):
        row = choice_rows[k - dense_from]
        idx = int(row[w])
        if idx < 0:
            raise AssertionError(
                "DP reconstruction hit an unreachable state; "
                "this indicates an internal invariant violation"
            )
        orig, wu, _ = prepared[k]
        choices[instance.classes[k].class_id] = int(orig[idx])
        w -= int(wu[idx])
    # Stitch back into the sparse prefix: the entry weight must be a
    # frontier point of the last sparse layer.
    point = int(np.searchsorted(front_w, w))
    if point >= front_w.shape[0] or int(front_w[point]) != w:
        raise AssertionError(
            "dense DP entry weight is not a sparse frontier point"
        )
    for k in range(dense_from - 1, -1, -1):
        item, parent = history[k]
        orig, _, _ = prepared[k]
        choices[instance.classes[k].class_id] = int(orig[item[point]])
        point = int(parent[point])
    return Selection(instance, choices)


@profile_calls("knapsack.dp_reference")
def solve_dp_reference(
    instance: MCKPInstance, resolution: int = 20_000
) -> Optional[Selection]:
    """The original row-masking DP, kept verbatim as a baseline.

    Serves two jobs: the differential-testing oracle confirming the
    optimized :func:`solve_dp` returns identical optima, and the
    "before" side of the paired benchmark in ``benchmarks/bench_perf.py``.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if instance.num_classes == 0:
        return Selection(instance, {})
    if instance.capacity == 0:
        return _zero_capacity_selection(instance)

    unit = instance.capacity / resolution
    n = instance.num_classes

    dp = np.full(resolution + 1, _NEG_INF)
    dp[0] = 0.0
    # choice[k][w]: item index chosen for class k when the best state at
    # weight w was formed; pred[k][w]: the weight index in the previous
    # layer this state came from.
    choice = np.full((n, resolution + 1), -1, dtype=np.int32)
    pred = np.full((n, resolution + 1), -1, dtype=np.int32)

    weights_units: List[List[int]] = []
    for cls in instance.classes:
        weights_units.append(
            [_quantize_weight(item.weight, unit) for item in cls.items]
        )

    for k, cls in enumerate(instance.classes):
        new_dp = np.full(resolution + 1, _NEG_INF)
        for idx, item in enumerate(cls.items):
            wu = weights_units[k][idx]
            if wu > resolution:
                continue
            if wu == 0:
                shifted = dp + item.value
                src = np.arange(resolution + 1)
            else:
                shifted = np.full(resolution + 1, _NEG_INF)
                shifted[wu:] = dp[: resolution + 1 - wu] + item.value
                src = np.arange(resolution + 1) - wu
            better = shifted > new_dp
            if np.any(better):
                new_dp[better] = shifted[better]
                choice[k][better] = idx
                pred[k][better] = src[better]
        dp = new_dp

    if not np.any(dp > _NEG_INF):
        return None

    best_w = int(np.nanargmax(np.where(dp > _NEG_INF, dp, _NEG_INF)))

    choices = {}
    w = best_w
    for k in range(n - 1, -1, -1):
        idx = int(choice[k][w])
        if idx < 0:
            raise AssertionError(
                "DP reconstruction hit an unreachable state; "
                "this indicates an internal invariant violation"
            )
        choices[instance.classes[k].class_id] = idx
        w = int(pred[k][w])

    return Selection(instance, choices)
