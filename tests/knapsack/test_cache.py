"""Unit tests for the MCKP solver cache."""

import pytest

from repro.knapsack import (
    MCKPClass,
    MCKPInstance,
    MCKPItem,
    SolverCache,
    canonical_instance_key,
    solve_delta,
    solve_dp,
)


def _instance(capacity=10.0, tags=("a", "b")):
    classes = (
        MCKPClass(
            "c0",
            (
                MCKPItem(value=1.0, weight=0.0, tag=tags[0]),
                MCKPItem(value=5.0, weight=4.0, tag=tags[1]),
            ),
        ),
        MCKPClass(
            "c1",
            (
                MCKPItem(value=2.0, weight=0.0),
                MCKPItem(value=9.0, weight=7.0),
            ),
        ),
    )
    return MCKPInstance(classes=classes, capacity=capacity)


def _infeasible():
    return MCKPInstance(
        classes=(MCKPClass("c0", (MCKPItem(value=1.0, weight=5.0),)),),
        capacity=1.0,
    )


def _counting(solver):
    calls = []

    def wrapped(instance, **kwargs):
        calls.append(instance)
        return solver(instance, **kwargs)

    return wrapped, calls


class TestCanonicalKey:
    def test_identical_structure_same_key(self):
        assert canonical_instance_key(_instance()) == canonical_instance_key(
            _instance()
        )

    def test_tags_do_not_affect_key(self):
        assert canonical_instance_key(
            _instance(tags=("a", "b"))
        ) == canonical_instance_key(_instance(tags=("x", "y")))

    def test_capacity_affects_key(self):
        assert canonical_instance_key(
            _instance(capacity=10.0)
        ) != canonical_instance_key(_instance(capacity=11.0))


class TestSolverCache:
    def test_miss_then_hit(self):
        cache = SolverCache()
        solver, calls = _counting(solve_dp)
        first = cache.solve("dp", solver, _instance(), resolution=100)
        second = cache.solve("dp", solver, _instance(), resolution=100)
        assert len(calls) == 1
        assert cache.stats == {
            "hits": 1,
            "misses": 1,
            "near_hits": 0,
            "hits_local": 1,
            "hits_replicated": 0,
            "replicated_in": 0,
            "replicated_states_in": 0,
            "entries": 1,
            "delta_states": 0,
        }
        assert second.choices == first.choices
        assert second.total_value == first.total_value

    def test_hit_rebinds_to_callers_instance(self):
        """The cached choices come back bound to the *caller's* instance,
        so its tags (response times in the ODM) are honoured."""
        cache = SolverCache()
        cache.solve("dp", solve_dp, _instance(tags=(0.0, 0.1)))
        mine = _instance(tags=(0.0, 0.25))
        hit = cache.solve("dp", solve_dp, mine)
        assert hit.instance is mine
        assert hit.item_for("c0").tag in (0.0, 0.25)

    def test_kwargs_distinguish_entries(self):
        cache = SolverCache()
        solver, calls = _counting(solve_dp)
        cache.solve("dp", solver, _instance(), resolution=10)
        cache.solve("dp", solver, _instance(), resolution=20)
        assert len(calls) == 2
        assert cache.misses == 2

    def test_solver_name_distinguishes_entries(self):
        cache = SolverCache()
        solver, calls = _counting(solve_dp)
        cache.solve("dp", solver, _instance())
        cache.solve("other", solver, _instance())
        assert len(calls) == 2

    def test_infeasible_none_is_cached(self):
        cache = SolverCache()
        solver, calls = _counting(solve_dp)
        assert cache.solve("dp", solver, _infeasible()) is None
        assert cache.solve("dp", solver, _infeasible()) is None
        assert len(calls) == 1
        assert cache.hits == 1

    def test_lru_eviction(self):
        cache = SolverCache(maxsize=2)
        a, b, c = (
            _instance(capacity=5.0),
            _instance(capacity=6.0),
            _instance(capacity=7.0),
        )
        solver, calls = _counting(solve_dp)
        cache.solve("dp", solver, a)
        cache.solve("dp", solver, b)
        cache.solve("dp", solver, c)  # evicts a (oldest)
        assert len(cache) == 2
        cache.solve("dp", solver, b)  # still cached
        assert cache.hits == 1
        cache.solve("dp", solver, a)  # evicted: recomputed
        assert len(calls) == 4

    def test_clear(self):
        cache = SolverCache()
        cache.solve("dp", solve_dp, _instance())
        cache.clear()
        assert len(cache) == 0
        cache.solve("dp", solve_dp, _instance())
        assert cache.misses == 2
        state = solve_delta(_instance(), resolution=100).state
        cache.store_state(
            cache.key_for("dp", _instance(), resolution=100), state
        )
        cache.clear()
        assert cache.probe_delta(_instance(), resolution=100) is None
        assert cache.near_hits == 0
        # the emptied index takes new states again
        cache.store_state(
            cache.key_for("dp", _instance(), resolution=100), state
        )
        assert cache.probe_delta(_instance(), resolution=100) is state

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            SolverCache(maxsize=0)

    def test_invalid_delta_maxstates_rejected(self):
        with pytest.raises(ValueError):
            SolverCache(delta_maxstates=-1)


class TestDeltaStates:
    def _state_for(self, cache, instance, resolution=100):
        result = solve_delta(instance, resolution=resolution)
        key = cache.key_for("dp", instance, resolution=resolution)
        cache.store_state(key, result.state)
        return key, result

    def test_probe_returns_best_prefix_state(self):
        cache = SolverCache()
        short = _instance()
        longer = MCKPInstance(
            classes=short.classes
            + (MCKPClass("c2", (MCKPItem(value=3.0, weight=1.0),)),),
            capacity=short.capacity,
        )
        self._state_for(cache, short)
        _, long_result = self._state_for(cache, longer)
        # shares a 3-class prefix with ``longer`` but only 2 with
        # ``short`` — the probe must pick the strictly longer prefix
        churned = MCKPInstance(
            classes=longer.classes
            + (MCKPClass("c3", (MCKPItem(value=8.0, weight=2.0),)),),
            capacity=longer.capacity,
        )
        probed = cache.probe_delta(churned, resolution=100)
        assert probed is long_result.state
        assert cache.near_hits == 1

    def test_probe_miss_on_unrelated_instance(self):
        cache = SolverCache()
        self._state_for(cache, _instance())
        stranger = MCKPInstance(
            classes=(MCKPClass("z", (MCKPItem(value=1.0, weight=9.0),)),),
            capacity=3.0,
        )
        assert cache.probe_delta(stranger, resolution=100) is None
        assert cache.near_hits == 0

    def test_state_table_is_lru_bounded(self):
        cache = SolverCache(delta_maxstates=2)
        for capacity in (5.0, 6.0, 7.0):
            self._state_for(cache, _instance(capacity=capacity))
        assert cache.stats["delta_states"] == 2

    def test_zero_maxstates_disables_storage(self):
        cache = SolverCache(delta_maxstates=0)
        self._state_for(cache, _instance())
        assert cache.stats["delta_states"] == 0
        assert cache.probe_delta(_instance(), resolution=100) is None


class TestMetricsMirroring:
    def test_registry_always_agrees_with_stats(self):
        """The satellite contract: ``repro metrics`` sees exactly the
        numbers :attr:`SolverCache.stats` reports — including counts
        accumulated *before* binding (back-filled), exact hits and
        misses, near-hit probes, and the occupancy gauges."""
        from repro.observability.metrics import MetricsRegistry

        cache = SolverCache()
        cache.solve("dp", solve_dp, _instance())  # pre-bind miss

        registry = MetricsRegistry()
        cache.bind_metrics(registry)

        def assert_mirrored():
            stats = cache.stats
            for counter in ("hits", "misses", "near_hits"):
                assert registry.value(
                    f"solver_cache.{counter}"
                ) == stats[counter]
            assert registry.value("solver_cache.entries") == stats[
                "entries"
            ]
            assert registry.value("solver_cache.delta_states") == stats[
                "delta_states"
            ]

        assert_mirrored()  # back-filled pre-bind history
        cache.solve("dp", solve_dp, _instance())  # hit
        cache.solve("dp", solve_dp, _instance(capacity=7.0))  # miss
        result = solve_delta(_instance(), resolution=100)
        cache.store_state(
            cache.key_for("dp", _instance(), resolution=100),
            result.state,
        )
        cache.probe_delta(_instance(), resolution=100)  # near hit
        assert_mirrored()
        assert cache.stats["near_hits"] == 1
        cache.clear()
        assert_mirrored()

    def test_custom_prefix(self):
        from repro.observability.metrics import MetricsRegistry

        cache = SolverCache()
        registry = MetricsRegistry()
        cache.bind_metrics(registry, prefix="odm_cache")
        cache.solve("dp", solve_dp, _instance())
        assert registry.value("odm_cache.misses") == 1
