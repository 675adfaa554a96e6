"""LRU memoization of MCKP solver calls.

The adaptive runtime (:mod:`repro.runtime.adaptive`) and the health
monitor's circuit-breaker loop (:mod:`repro.runtime.health`) re-run the
Offloading Decision Manager every decision window, and between failure
events the believed task set — hence the MCKP instance — is unchanged.
Solvers are pure functions of ``(instance, kwargs)``, so those repeat
calls can be answered from a cache instead of re-running the DP.

Keying
------
The cache key is a *canonical structural tuple* of the instance — class
ids, per-item ``(value, weight)`` pairs in original order, capacity —
plus the solver name and its sorted kwargs.  Exact float equality is
deliberate: two instances that differ in any bit are different problems,
and near-miss collapsing would silently change results.  ``tag`` fields
are excluded (solvers never read them), but a cache **hit rebinds the
stored choices onto the caller's instance**, so the returned
:class:`Selection` carries the caller's tags, not the first caller's.

The cache is bounded LRU (default 256 entries) and records hit/miss
counters for observability.

Near-miss probing
-----------------
Exact keying means one churned task invalidates the entry — yet the
work done solving the old instance is mostly still valid.  The cache
therefore keeps a second, much smaller LRU of resumable
:class:`~repro.knapsack.delta.DeltaState` objects.  On an exact miss a
caller may :meth:`~SolverCache.probe_delta` for the state sharing the
longest resumable class prefix with its instance and warm-start
:func:`~repro.knapsack.delta.solve_delta` from it — bit-identical to a
scratch solve, so the exact-keying correctness story is unchanged.
Successful probes count as ``near_hits`` (a subset of ``misses``: the
exact probe already missed by then).

The probe does not scan the state table.  Every stored state is
registered under ``h_L`` for each layer prefix ``L`` it can resume,
where ``h_L`` is a hash of its capacity and resolution chained through
its first ``L`` class keys.  A probe hashes its own instance's
prefixes one class at a time while some state is registered under
them, then looks those buckets up longest first — at most O(layers)
dict lookups, whatever the table size, and one class key when no
state shares even the first class.  Each candidate is confirmed with
:func:`~repro.knapsack.delta.common_prefix`, so a hash collision can
cost a comparison but never resume a wrong state.  Buckets keep their
states in the table's LRU order, and the probe takes the first
confirmed one: among states tied on the longest prefix, the oldest
wins, exactly as a front-to-back scan of the table would choose.

Warm replication
----------------
In a fleet, a peer replica may have already solved an instance this
replica is about to see.  The cache therefore tracks per-entry hit
counts and an *origin* per entry (``"local"`` = solved here,
``"replicated"`` = absorbed from a peer via
:mod:`repro.fleet.cachetier`):

* :meth:`~SolverCache.hot_entries` ranks entries by hit count for the
  bounded per-round replication budget;
* :meth:`~SolverCache.absorb` / :meth:`~SolverCache.absorb_state`
  insert peer records — never overwriting a local entry, since the
  local result is identical by determinism and its recency is truer;
* hits split into ``hits_local`` / ``hits_replicated`` so the fleet
  harness can attribute warm-cache wins to the tier.

Replication never changes results: solvers are pure, so a peer's entry
under the same canonical key holds the byte-identical choices a local
solve would produce (the fleet campaign audits this on every response).

All counters can be mirrored live into a
:class:`~repro.observability.metrics.MetricsRegistry` via
:meth:`~SolverCache.bind_metrics`, which is how ``repro metrics`` and
the service stats endpoint see them.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import count
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from .delta import ClassKey, DeltaState, class_key, common_prefix
from .mckp import MCKPInstance, Selection

__all__ = ["SolverCache", "canonical_instance_key"]


class _CacheEntry:
    """One stored result plus its replication bookkeeping."""

    __slots__ = ("choices", "origin", "hits")

    def __init__(
        self, choices: Optional[Dict[str, int]], origin: str
    ) -> None:
        self.choices = choices
        self.origin = origin
        self.hits = 0


class _StateEntry(NamedTuple):
    """One stored delta state plus the prefix-index slots it fills.

    Index buckets are keyed by ``serial``, a small int, so bucket upkeep
    never re-hashes the (large) cache key.
    """

    key: Tuple
    state: DeltaState
    serial: int
    slots: Set[int]


def prefix_hashes(
    capacity: float, resolution: int, keys: Iterable[ClassKey]
) -> Iterator[Tuple[ClassKey, int]]:
    """Yield ``(keys[L - 1], h_L)`` for ``L = 1, 2, ...``, lazily.

    ``h_L`` is a hash of ``(capacity, resolution, keys[:L])`` chained
    one class key at a time.  Equal inputs always hash equal (tuple
    hashing follows ``==``, so ``0.0`` and ``-0.0`` agree); unequal
    ones may collide, which is why the near-miss index confirms every
    candidate it finds.
    """
    chained = hash((capacity, resolution))
    for key in keys:
        chained = hash((chained, key))
        yield key, chained


def canonical_instance_key(instance: MCKPInstance) -> Tuple:
    """A hashable structural fingerprint of an MCKP instance.

    Items stay in original order — solvers' tie-breaking depends on item
    order, so permuted instances must not share an entry.
    """
    return (
        float(instance.capacity),
        tuple(
            (
                cls.class_id,
                tuple((item.value, item.weight) for item in cls.items),
            )
            for cls in instance.classes
        ),
    )


class SolverCache:
    """Bounded LRU cache wrapping any registered MCKP solver.

    Usage::

        cache = SolverCache(maxsize=128)
        selection = cache.solve("dp", solve_dp, instance, resolution=20_000)

    A miss runs the solver and stores the resulting choices; a hit
    returns a :class:`Selection` over the *caller's* instance with the
    cached choices (identical ``choices``/``total_value``/``total_weight``
    by construction).  ``None`` results (infeasible instances) are
    cached too.
    """

    __slots__ = (
        "maxsize",
        "delta_maxstates",
        "hits",
        "misses",
        "near_hits",
        "hits_local",
        "hits_replicated",
        "replicated_in",
        "replicated_states_in",
        "_entries",
        "_delta_states",
        "_prefix_index",
        "_serials",
        "_metrics",
        "_metrics_prefix",
    )

    def __init__(
        self, maxsize: int = 256, delta_maxstates: int = 8
    ) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        if delta_maxstates < 0:
            raise ValueError("delta_maxstates must be non-negative")
        self.maxsize = int(maxsize)
        self.delta_maxstates = int(delta_maxstates)
        self.hits = 0
        self.misses = 0
        self.near_hits = 0
        self.hits_local = 0
        self.hits_replicated = 0
        self.replicated_in = 0
        self.replicated_states_in = 0
        # key -> _CacheEntry (choices dict or None = infeasible)
        self._entries: "OrderedDict[Tuple, _CacheEntry]" = OrderedDict()
        # key -> resumable DP state for near-miss warm starts
        self._delta_states: "OrderedDict[Tuple, _StateEntry]" = (
            OrderedDict()
        )
        # prefix hash -> {serial: entry}, each bucket in the delta
        # table's LRU order (see module docstring)
        self._prefix_index: Dict[int, Dict[int, _StateEntry]] = {}
        self._serials = count()
        self._metrics = None
        self._metrics_prefix = "solver_cache"

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._delta_states.clear()
        self._prefix_index.clear()
        self._refresh_gauges()

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "near_hits": self.near_hits,
            "hits_local": self.hits_local,
            "hits_replicated": self.hits_replicated,
            "replicated_in": self.replicated_in,
            "replicated_states_in": self.replicated_states_in,
            "entries": len(self._entries),
            "delta_states": len(self._delta_states),
        }

    # ------------------------------------------------------------------
    # metrics mirroring
    # ------------------------------------------------------------------
    def bind_metrics(self, registry, prefix: str = "solver_cache") -> None:
        """Mirror counters into ``registry`` live from now on.

        Counts accumulated before binding are back-filled so the
        registry's ``<prefix>.hits`` / ``.misses`` / ``.near_hits``
        counters always equal :attr:`stats`; ``<prefix>.entries`` /
        ``.delta_states`` gauges track occupancy.
        """
        self._metrics = registry
        self._metrics_prefix = prefix
        registry.counter(f"{prefix}.hits").inc(self.hits)
        registry.counter(f"{prefix}.misses").inc(self.misses)
        registry.counter(f"{prefix}.near_hits").inc(self.near_hits)
        registry.counter(f"{prefix}.hits_local").inc(self.hits_local)
        registry.counter(f"{prefix}.hits_replicated").inc(
            self.hits_replicated
        )
        registry.counter(f"{prefix}.replicated_in").inc(
            self.replicated_in
        )
        registry.counter(f"{prefix}.replicated_states_in").inc(
            self.replicated_states_in
        )
        self._refresh_gauges()

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                f"{self._metrics_prefix}.{name}"
            ).inc()

    def _refresh_gauges(self) -> None:
        if self._metrics is None:
            return
        prefix = self._metrics_prefix
        self._metrics.gauge(f"{prefix}.entries").set(len(self._entries))
        self._metrics.gauge(f"{prefix}.delta_states").set(
            len(self._delta_states)
        )

    @staticmethod
    def key_for(
        solver_name: str, instance: MCKPInstance, **kwargs: Any
    ) -> Tuple:
        """The full cache key of a ``(solver, kwargs, instance)`` call."""
        return (
            solver_name,
            tuple(sorted(kwargs.items())),
            canonical_instance_key(instance),
        )

    def lookup(self, key: Tuple) -> Tuple[bool, Optional[Dict[str, int]]]:
        """Probe the cache: ``(hit, choices-or-None)``.

        A hit returns the stored choices dict (``None`` for a cached
        infeasible verdict); callers rebind onto their own instance.
        Updates the hit/miss counters and LRU recency, so the batched
        service path and :meth:`solve` share one statistics stream.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            entry.hits += 1
            self._count("hits")
            if entry.origin == "replicated":
                self.hits_replicated += 1
                self._count("hits_replicated")
            else:
                self.hits_local += 1
                self._count("hits_local")
            self._entries.move_to_end(key)
            return True, entry.choices
        self.misses += 1
        self._count("misses")
        return False, None

    def contains(self, key: Tuple) -> bool:
        """Presence probe that updates no counter and no recency
        (replication digests must not skew hit statistics)."""
        return key in self._entries

    def keys(self) -> List[Tuple]:
        """Every resident entry key, oldest first (sync ``have`` lists)."""
        return list(self._entries)

    def store(
        self,
        key: Tuple,
        choices: Optional[Dict[str, int]],
        origin: str = "local",
    ) -> None:
        """Insert one solved result (``None`` = infeasible), evicting LRU."""
        held = self._entries.get(key)
        if held is not None:
            # keep the hit count: re-storing is the same problem solved
            # again, not a new entry
            held.choices = None if choices is None else dict(choices)
            held.origin = origin
        else:
            self._entries[key] = _CacheEntry(
                None if choices is None else dict(choices), origin
            )
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        self._refresh_gauges()

    # ------------------------------------------------------------------
    # warm replication (fleet cache tier)
    # ------------------------------------------------------------------
    def absorb(
        self, key: Tuple, choices: Optional[Dict[str, int]]
    ) -> bool:
        """Insert one *peer-replicated* entry; ``True`` iff inserted.

        An already-resident key is left untouched — the local copy is
        byte-identical (solvers are pure) and its recency/hit history
        is truer than the peer's.
        """
        if key in self._entries:
            return False
        self.store(key, choices, origin="replicated")
        self.replicated_in += 1
        self._count("replicated_in")
        return True

    def absorb_state(
        self, key: Tuple, state: Optional[DeltaState]
    ) -> bool:
        """Insert one peer-replicated delta state; ``True`` iff kept."""
        if (
            state is None
            or self.delta_maxstates == 0
            or key in self._delta_states
        ):
            return False
        self.store_state(key, state)
        self.replicated_states_in += 1
        self._count("replicated_states_in")
        return True

    def hot_entries(
        self, budget: int
    ) -> List[Tuple[Tuple, Optional[Dict[str, int]]]]:
        """Up to ``budget`` ``(key, choices)`` pairs, hottest first.

        Ranked by per-entry hit count, most-recently-used breaking
        ties — the entries a peer is most likely to need next.  The
        ranking is deterministic for a given cache history.
        """
        if budget <= 0:
            return []
        ranked = sorted(
            enumerate(self._entries.items()),
            key=lambda pair: (-pair[1][1].hits, -pair[0]),
        )
        return [
            (key, entry.choices) for _, (key, entry) in ranked[:budget]
        ]

    def hot_states(
        self, budget: int
    ) -> List[Tuple[Tuple, DeltaState]]:
        """Up to ``budget`` ``(key, state)`` pairs, most recent first."""
        if budget <= 0:
            return []
        entries = list(self._delta_states.values())
        return [(entry.key, entry.state) for entry in entries[-budget:][::-1]]

    # ------------------------------------------------------------------
    # near-miss delta states
    # ------------------------------------------------------------------
    def store_state(self, key: Tuple, state: Optional[DeltaState]) -> None:
        """Keep ``state`` for future warm starts (LRU, small bound).

        The state must not change once stored: its index slots are
        derived from its class keys and folded layers here.
        """
        if state is None or self.delta_maxstates == 0:
            return
        table = self._delta_states
        held = table.pop(key, None)
        if held is not None:
            self._unindex(held)
        layers = min(state.num_layers, len(state.class_keys))
        slots = {
            slot
            for _, slot in prefix_hashes(
                state.capacity, state.resolution, state.class_keys[:layers]
            )
        }
        entry = _StateEntry(key, state, next(self._serials), slots)
        table[key] = entry
        for slot in slots:
            self._prefix_index.setdefault(slot, {})[entry.serial] = entry
        while len(table) > self.delta_maxstates:
            self._unindex(table.popitem(last=False)[1])
        self._refresh_gauges()

    def _unindex(self, entry: _StateEntry) -> None:
        index = self._prefix_index
        for slot in entry.slots:
            bucket = index[slot]
            del bucket[entry.serial]
            if not bucket:
                del index[slot]

    def probe_delta(
        self, instance: MCKPInstance, resolution: int
    ) -> Optional[DeltaState]:
        """Best warm-start state for ``instance``, or ``None``.

        Looks up the prefix index (module docstring) longest prefix
        first for the state sharing the longest resumable class prefix
        — at least one layer — with ``instance`` at this
        ``resolution``; among tied states the least recently used
        wins.  A successful probe counts as a near-hit and refreshes
        the state's LRU recency.
        """
        if not self._delta_states:
            return None
        best = self._longest_prefix(instance, resolution)
        if best is None:
            return None
        self.near_hits += 1
        self._count("near_hits")
        self._delta_states.move_to_end(best.key)
        serial = best.serial
        for slot in best.slots:
            bucket = self._prefix_index[slot]
            bucket[serial] = bucket.pop(serial)
        return best.state

    def _longest_prefix(
        self, instance: MCKPInstance, resolution: int
    ) -> Optional[_StateEntry]:
        """The oldest entry sharing the longest confirmed prefix."""
        capacity = instance.capacity
        # Walk up while some state is registered under the prefix: an
        # equal prefix hashes equal, so none shares a longer one, and a
        # miss costs one class key instead of all of them.
        keys: List[ClassKey] = []
        buckets = []
        for key, slot in prefix_hashes(
            capacity, resolution, map(class_key, instance.classes)
        ):
            bucket = self._prefix_index.get(slot)
            if bucket is None:
                break
            keys.append(key)
            buckets.append(bucket)
        # Then down, longest first: a bucket may hold collisions.
        prefix_keys = tuple(keys)
        for length in range(len(buckets), 0, -1):
            for entry in buckets[length - 1].values():
                prefix = common_prefix(
                    entry.state, prefix_keys, capacity, resolution
                )
                if prefix >= length:
                    return entry
        return None

    def solve(
        self,
        solver_name: str,
        solver: Callable[..., Optional[Selection]],
        instance: MCKPInstance,
        **kwargs: Any,
    ) -> Optional[Selection]:
        """Solve ``instance`` with ``solver``, memoized."""
        key = self.key_for(solver_name, instance, **kwargs)
        hit, choices = self.lookup(key)
        if hit:
            if choices is None:
                return None
            return Selection(instance, dict(choices))

        selection = solver(instance, **kwargs)
        self.store(
            key, None if selection is None else dict(selection.choices)
        )
        return selection
