"""ShardSolver: batched == serial bit-for-bit, cache probing, dedup."""

import random

import pytest

from repro.knapsack import (
    MCKPClass,
    MCKPInstance,
    MCKPItem,
    SOLVERS,
    SolverCache,
)
from repro.service import ShardSolver


def random_instance(rng: random.Random) -> MCKPInstance:
    classes = []
    for index in range(rng.randint(2, 4)):
        items = tuple(
            MCKPItem(
                value=float(rng.randint(0, 40)),
                weight=float(rng.randint(0, 12)),
            )
            for _ in range(rng.randint(2, 4))
        )
        classes.append(MCKPClass(f"c{index}", items))
    return MCKPInstance(classes=tuple(classes), capacity=20.0)


def entries_for(instances):
    entries = []
    for i, instance in enumerate(instances):
        if i % 3 == 2:
            entries.append(("heu_oe", instance, {}))
        else:
            entries.append(("dp", instance, {"resolution": 20}))
    return entries


def test_batched_equals_serial_bit_for_bit():
    rng = random.Random(5)
    instances = [random_instance(rng) for _ in range(12)]
    entries = entries_for(instances)

    batched = ShardSolver(SolverCache()).solve_batch(entries)

    for (name, instance, kwargs), selection in zip(entries, batched):
        serial = SOLVERS[name](instance, **kwargs)
        if serial is None:
            assert selection is None
            continue
        assert selection is not None
        assert selection.choices == serial.choices
        assert selection.total_value == serial.total_value
        assert selection.instance is instance


def test_cache_probes_avoid_resolves():
    rng = random.Random(9)
    instances = [random_instance(rng) for _ in range(6)]
    entries = entries_for(instances)
    cache = SolverCache()
    solver = ShardSolver(cache)

    first = solver.solve_batch(entries)
    assert cache.hits == 0
    misses = cache.misses

    second = solver.solve_batch(entries)
    assert cache.misses == misses  # no new solves
    assert cache.hits == len(entries)
    for a, b in zip(first, second):
        if a is None:
            assert b is None
        else:
            assert b is not None and b.choices == a.choices


def test_in_batch_dedup_collapses_identical_requests():
    rng = random.Random(11)
    instance = random_instance(rng)
    entries = [("dp", instance, {"resolution": 20})] * 5
    cache = SolverCache()
    solver = ShardSolver(cache)

    results = solver.solve_batch(entries)
    # five lookups missed, but only ONE solve was stored
    assert cache.misses == 5
    assert cache.stats["entries"] == 1
    reference = SOLVERS["dp"](instance, resolution=20)
    for selection in results:
        if reference is None:
            assert selection is None
        else:
            assert selection is not None
            assert selection.choices == reference.choices


def test_dedup_distinguishes_solver_and_kwargs():
    rng = random.Random(13)
    instance = random_instance(rng)
    cache = SolverCache()
    solver = ShardSolver(cache)
    solver.solve_batch(
        [
            ("dp", instance, {"resolution": 20}),
            ("dp", instance, {"resolution": 40}),
            ("heu_oe", instance, {}),
        ]
    )
    # three distinct cache keys despite the identical instance
    assert cache.stats["entries"] == 3


def test_unknown_solver_raises():
    rng = random.Random(17)
    solver = ShardSolver(SolverCache())
    with pytest.raises(ValueError, match="unknown solver"):
        solver.solve_batch([("nope", random_instance(rng), {})])


def test_empty_batch_is_noop():
    solver = ShardSolver(SolverCache())
    assert solver.solve_batch([]) == []


def test_answer_hits_stops_at_the_first_miss_or_unknown_solver():
    rng = random.Random(19)
    solved, fresh = random_instance(rng), random_instance(rng)
    cache = SolverCache()
    solver = ShardSolver(cache)
    entry = ("dp", solved, {"resolution": 20})
    reference = solver.solve_batch([entry])[0]
    counters = (cache.hits, cache.misses)

    head = solver.answer_hits(
        [entry, entry, ("dp", fresh, {"resolution": 20}), entry]
    )
    assert len(head) == 2
    for selection in head:
        if reference is None:
            assert selection is None
        else:
            assert selection.choices == reference.choices
            assert selection.instance is solved
    # two hits counted; the miss it stopped at touched no counter
    assert (cache.hits, cache.misses) == (counters[0] + 2, counters[1])

    assert solver.answer_hits([("nope", solved, {}), entry]) == []
    assert solver.answer_hits([]) == []
