"""Warm-start ("delta") MCKP solving for churned instances.

The realistic online serving pattern is a mostly-stable task population
with small churn: consecutive admission requests differ by a handful of
task add/remove/modify operations.  A from-scratch
:func:`~repro.knapsack.dp.solve_dp` re-folds *every* class into the
sparse Pareto frontier; but the frontier after folding classes
``0..k-1`` is a pure function of those classes' prepared item arrays
(plus capacity and resolution), so when a new instance shares a prefix
with a previously solved one, the cached per-layer frontiers let the DP
resume at the first divergent class instead of at zero.

Correctness argument (pinned by ``tests/knapsack/test_delta.py``)
-----------------------------------------------------------------
A :class:`DeltaState` records, per sparse layer ``k``, the frontier
``(front_w, front_v)`` *after* folding class ``k`` and the
``(item, parent)`` backtracking record of that fold.  Layer ``k``'s
frontier depends only on ``resolution`` and the prepared arrays of
classes ``0..k`` — and :func:`~repro.knapsack.dp._prepare_class` is a
deterministic function of the class's ``(value, weight)`` item tuple
alone (position- and id-independent).  Hence if a new instance has the
same capacity and resolution and its first ``p`` classes have item
tuples equal to the cached instance's first ``p`` classes, the cached
layers ``0..p-1`` are *exactly* what a scratch solve would recompute:
same frontiers, same histories, and — because the sparse→dense switch
reads only ``len(frontier)`` and ``len(class items)`` — the same switch
decisions.  Resuming :func:`~repro.knapsack.dp._run_dp` at layer ``p``
therefore executes the identical remaining instruction stream as a
scratch solve, making the result bit-for-bit identical by construction,
not by approximation.  Class *ids* are deliberately excluded from the
prefix key: the reconstruction reads ids from the **new** instance, so
renaming a class costs nothing.

Beyond the prefix, prepared arrays are still reused content-addressed
(an unchanged class that merely *moved* skips dominance-pruning and
quantization), which keeps the non-resumable part of a delta solve
cheap too.

Everything in a :class:`DeltaState` is plain numpy + tuples, so states
serialize cheaply — the fleet cache tier ships them between replicas
(:mod:`repro.fleet.cachetier`) to seed a peer's near-miss index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..observability.profiling import profile_calls
from .dp import _prepare_class, _run_dp, solve_dp
from .mckp import MCKPClass, MCKPInstance, Selection

__all__ = [
    "ClassKey",
    "DeltaState",
    "DeltaResult",
    "class_key",
    "instance_class_keys",
    "common_prefix",
    "solve_delta",
]

#: Content fingerprint of one class: its ``(value, weight)`` pairs in
#: original order.  The class id is excluded on purpose (see module
#: docstring); item order matters because tie-breaking depends on it.
ClassKey = Tuple[Tuple[float, float], ...]


def class_key(cls: MCKPClass) -> ClassKey:
    """The delta-prefix fingerprint of one class."""
    return tuple((item.value, item.weight) for item in cls.items)


def instance_class_keys(instance: MCKPInstance) -> Tuple[ClassKey, ...]:
    """Per-class fingerprints of ``instance`` in class order."""
    return tuple(class_key(cls) for cls in instance.classes)


@dataclass
class DeltaState:
    """Resumable DP state of one solved (or attempted) instance.

    ``prepared`` has one entry per class of the originating instance
    (``None`` marks a class with no feasible item).  ``history`` and
    ``frontiers`` cover the *sparse* layers actually folded — possibly
    fewer than ``len(class_keys)`` when the run switched to the dense
    table or hit infeasibility mid-fold; resumes are capped there.
    """

    capacity: float
    resolution: int
    class_keys: Tuple[ClassKey, ...]
    prepared: List[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]]
    history: List[Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=list
    )
    frontiers: List[Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=list
    )

    @property
    def num_layers(self) -> int:
        """How many sparse layers this state can warm-start."""
        return len(self.frontiers)


@dataclass(frozen=True)
class DeltaResult:
    """Outcome of one :func:`solve_delta` call.

    ``selection`` is bit-identical to ``solve_dp(instance, resolution)``.
    ``state`` is the resumable state of *this* instance (``None`` only
    for the degenerate empty/zero-capacity shortcuts, which bypass the
    DP entirely).  ``reused_layers`` counts the warm-started layers —
    0 means the solve was effectively from scratch.
    """

    selection: Optional[Selection]
    state: Optional[DeltaState]
    reused_layers: int


def common_prefix(
    state: DeltaState,
    keys: Tuple[ClassKey, ...],
    capacity: float,
    resolution: int,
) -> int:
    """Longest resumable layer prefix of ``state`` for a new instance.

    Zero when capacity or resolution differ (the quantization unit —
    hence every prepared array — would change).  Otherwise the longest
    run of equal class fingerprints, capped at the layers the state
    actually folded sparsely.
    """
    if state.capacity != capacity or state.resolution != resolution:
        return 0
    limit = min(state.num_layers, len(state.class_keys), len(keys))
    prefix = 0
    while prefix < limit and state.class_keys[prefix] == keys[prefix]:
        prefix += 1
    return prefix


@profile_calls("knapsack.delta")
def solve_delta(
    instance: MCKPInstance,
    resolution: int = 20_000,
    state: Optional[DeltaState] = None,
) -> DeltaResult:
    """Solve ``instance`` warm-starting from ``state`` when possible.

    With ``state=None`` (or a state sharing no prefix) this is a scratch
    solve through the same :func:`~repro.knapsack.dp._run_dp` engine as
    :func:`solve_dp` — the point of routing even scratch solves here is
    the returned :class:`DeltaState`, which seeds future warm starts.
    The returned selection is **bit-for-bit identical** to
    ``solve_dp(instance, resolution)`` in all cases.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if instance.num_classes == 0 or instance.capacity == 0:
        # No DP runs for these; nothing to cache or resume.
        return DeltaResult(
            solve_dp(instance, resolution=resolution), None, 0
        )

    unit = instance.capacity / resolution
    keys = instance_class_keys(instance)

    prefix = 0
    prep_by_key = {}
    if state is not None:
        prefix = common_prefix(
            state, keys, instance.capacity, resolution
        )
        prep_by_key = dict(zip(state.class_keys, state.prepared))

    missing = object()
    prepared: List[
        Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    ] = []
    for cls, key in zip(instance.classes, keys):
        prep = prep_by_key.get(key, missing)
        if prep is missing:
            prep = _prepare_class(cls.items, unit, resolution)
        prepared.append(prep)

    # The resumed layers stay valid even if the *run* below never
    # happens (infeasible at preparation): they describe this instance's
    # prefix and are worth caching for the next churn step.
    history = list(state.history[:prefix]) if prefix else []
    frontiers = list(state.frontiers[:prefix]) if prefix else []
    new_state = DeltaState(
        capacity=instance.capacity,
        resolution=resolution,
        class_keys=keys,
        prepared=prepared,
        history=history,
        frontiers=frontiers,
    )
    if any(prep is None for prep in prepared):
        return DeltaResult(None, new_state, prefix)

    if prefix == 0:
        front_w = np.zeros(1, dtype=np.int64)
        front_v = np.zeros(1)
    else:
        front_w, front_v = frontiers[prefix - 1]
    selection = _run_dp(
        instance,
        prepared,
        resolution,
        front_w,
        front_v,
        history,
        frontiers,
        prefix,
    )
    return DeltaResult(selection, new_state, prefix)
