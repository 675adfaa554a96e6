"""Differential wall for the near-miss prefix index of :class:`SolverCache`.

``SolverCache.probe_delta`` answers from an index keyed by class-prefix
hashes.  The oracle here is the linear scan it replaced: walk the
delta-state table oldest first and keep the first state with a strictly
longer resumable prefix.  Seeded random sequences of ``store_state``,
``probe_delta``, ``absorb_state`` and ``clear`` drive both through the
same states, and after every step they must agree on the state a probe
returns (by identity), on ``near_hits`` and on the table's LRU order.
A second run forces every prefix hash to collide, so only the
``common_prefix`` confirmation keeps the index honest.
"""

import random
from collections import OrderedDict

import pytest

from repro.knapsack import (
    DeltaState,
    MCKPClass,
    MCKPInstance,
    MCKPItem,
    SolverCache,
    common_prefix,
    instance_class_keys,
)
from repro.knapsack import cache as cache_module

#: few distinct classes, so prefixes are shared and ties are common;
#: the last two are equal under ``==`` (``0.0 == -0.0``)
ALPHABET = (
    ((1.0, 0.0), (4.0, 2.0)),
    ((2.0, 1.0),),
    ((3.0, 0.0), (5.0, 3.0)),
    ((0.0, 0.0),),
    ((-0.0, 0.0),),
)
CAPACITIES = (5.0, 10.0)
RESOLUTIONS = (100, 200)
KEYS = tuple(("dp", (("resolution", k),), k) for k in range(7))


class ScanOracle:
    """The delta-state table as it was before the index: an LRU
    ``OrderedDict`` probed by a front-to-back scan."""

    def __init__(self, maxstates):
        self.maxstates = maxstates
        self.states = OrderedDict()
        self.near_hits = 0

    def store_state(self, key, state):
        if state is None or self.maxstates == 0:
            return
        self.states[key] = state
        self.states.move_to_end(key)
        while len(self.states) > self.maxstates:
            self.states.popitem(last=False)

    def absorb_state(self, key, state):
        if state is None or self.maxstates == 0 or key in self.states:
            return False
        self.store_state(key, state)
        return True

    def probe_delta(self, instance, resolution):
        keys = instance_class_keys(instance)
        best_key = best_state = None
        best_prefix = 0
        for key, state in self.states.items():
            prefix = common_prefix(
                state, keys, instance.capacity, resolution
            )
            if prefix > best_prefix:
                best_key, best_state, best_prefix = key, state, prefix
        if best_state is None:
            return None
        self.near_hits += 1
        self.states.move_to_end(best_key)
        return best_state

    def clear(self):
        self.states.clear()

    def lru_keys(self):
        return list(self.states)[::-1]


def _class_keys(rng, max_classes=5):
    return tuple(
        rng.choice(ALPHABET) for _ in range(rng.randint(0, max_classes))
    )


def _state(rng, probed=None):
    """A state with random class keys whose folded layers may stop
    short of its classes (a dense switch or an infeasible prefix).

    Given the last ``(instance, resolution)`` probed, it is sometimes
    that instance's own state, as a service stores after a solve.
    """
    if probed is not None and rng.random() < 0.5:
        instance, resolution = probed
        class_keys = instance_class_keys(instance)
        capacity = instance.capacity
    else:
        class_keys = _class_keys(rng)
        capacity = rng.choice(CAPACITIES)
        resolution = rng.choice(RESOLUTIONS)
    layers = rng.randint(0, len(class_keys))
    if rng.random() < 0.5:
        layers = len(class_keys)
    return DeltaState(
        capacity=capacity,
        resolution=resolution,
        class_keys=class_keys,
        prepared=[None] * len(class_keys),
        history=[(None, None)] * layers,
        frontiers=[(None, None)] * layers,
    )


def _instance(class_keys, capacity):
    return MCKPInstance(
        classes=tuple(
            MCKPClass(
                f"c{k}",
                tuple(MCKPItem(value=v, weight=w) for v, w in key),
            )
            for k, key in enumerate(class_keys)
        ),
        capacity=capacity,
    )


def _probe_instance(rng, stored):
    """Mostly a churned sibling of a stored state, sometimes a stranger."""
    if stored and rng.random() < 0.8:
        base = rng.choice(stored)
        keep = rng.randint(0, len(base.class_keys))
        tail = _class_keys(rng, max_classes=3)
        capacity = (
            base.capacity if rng.random() < 0.9 else rng.choice(CAPACITIES)
        )
        resolution = (
            base.resolution
            if rng.random() < 0.9
            else rng.choice(RESOLUTIONS)
        )
        return _instance(base.class_keys[:keep] + tail, capacity), resolution
    return (
        _instance(_class_keys(rng), rng.choice(CAPACITIES)),
        rng.choice(RESOLUTIONS),
    )


def _assert_agree(cache, oracle, maxstates):
    assert cache.near_hits == oracle.near_hits
    assert [
        key for key, _ in cache.hot_states(maxstates)
    ] == oracle.lru_keys()
    assert cache.stats["delta_states"] == len(oracle.states)


def _drive(seed, steps=250):
    rng = random.Random(seed)
    maxstates = rng.choice((3, 4))
    cache = SolverCache(delta_maxstates=maxstates)
    oracle = ScanOracle(maxstates)
    stored = []
    probed_last = None
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.35:
            # a pool of 7 keys over 3-4 slots re-stores keys often
            key, state = rng.choice(KEYS), _state(rng, probed_last)
            cache.store_state(key, state)
            oracle.store_state(key, state)
            stored.append(state)
        elif roll < 0.45:
            key, state = rng.choice(KEYS), _state(rng)
            assert cache.absorb_state(key, state) == oracle.absorb_state(
                key, state
            )
            stored.append(state)
        elif roll < 0.98:
            probed_last = _probe_instance(rng, stored)
            instance, resolution = probed_last
            expected = oracle.probe_delta(instance, resolution)
            probed = cache.probe_delta(instance, resolution)
            assert probed is expected
            if probed is not None:
                assert common_prefix(
                    probed,
                    instance_class_keys(instance),
                    instance.capacity,
                    resolution,
                ) >= 1
        else:
            cache.clear()
            oracle.clear()
        _assert_agree(cache, oracle, maxstates)
    return oracle.near_hits


@pytest.mark.parametrize("seed", range(40))
def test_index_probe_matches_linear_scan(seed):
    near_hits = _drive(seed)
    assert near_hits > 0  # the walk exercised the warm-start path


def _colliding(capacity, resolution, keys):
    return ((key, 0) for key in keys)


@pytest.mark.parametrize("seed", range(10))
def test_colliding_hashes_still_match_linear_scan(seed, monkeypatch):
    """With every prefix in one bucket, only the ``common_prefix``
    confirmation separates real matches from collisions — the answers
    must not change."""
    monkeypatch.setattr(cache_module, "prefix_hashes", _colliding)
    _drive(seed)


def test_collision_never_resumes_a_shorter_prefix(monkeypatch):
    monkeypatch.setattr(cache_module, "prefix_hashes", _colliding)
    a, b, c = ALPHABET[:3]
    cache = SolverCache(delta_maxstates=4)

    def stored(key, class_keys):
        state = DeltaState(
            capacity=10.0,
            resolution=100,
            class_keys=class_keys,
            prepared=[None] * len(class_keys),
            history=[(None, None)] * len(class_keys),
            frontiers=[(None, None)] * len(class_keys),
        )
        cache.store_state(KEYS[key], state)
        return state

    # the older state collides at every length but shares nothing
    stored(0, (c, c, c))
    assert cache.probe_delta(_instance((a, a, a), 10.0), 100) is None
    # a younger state shares two layers; the colliding one sits ahead
    # of it in the one bucket every prefix lands in
    shared = stored(1, (a, a, b))
    probed = cache.probe_delta(_instance((a, a, a), 10.0), 100)
    assert probed is shared
    assert cache.near_hits == 1
