"""Differential fuzzing of the service solve paths (satellite suite).

Two contracts are pinned over a 300+ instance corpus:

1. **Optimum equivalence vs the oracle.**  The vectorized ``solve_dp``
   and the serial reference ``solve_dp_reference`` are two exact DPs
   over the same quantized weights, so they must agree on feasibility,
   on the optimal value, and on the (minimal) quantized weight of the
   optimum.  They may legitimately return *different argmaxes* when
   several selections tie: the reference iterates raw items
   first-index-wins, while ``solve_dp`` prunes dominated items first —
   so bit-identical choices are only guaranteed when the optimum is
   unique, which the adversarial sub-corpus deliberately violates.

2. **Bit-identity of every service fast path vs the serial solve.**
   The :class:`SolverCache` hit path, in-batch deduplication, the
   batch solver's scratch path, and the warm-start delta path (scratch,
   exact cached hit, and near-miss partial hit — see
   ``test_every_solver_path_is_bit_identical``) are pure plumbing
   around ``solve_dp``; their answers must be *bit-identical* (same
   choices dict, same totals) to calling ``solve_dp`` serially on the
   same instance — on ties included, which is exactly where plumbing
   bugs would surface.

The corpus includes adversarial near-ties: weights offset from integer
quantization-grid points by ±0.49/R and ±0.51/R so quantized weights
straddle the ceil boundary, plus tiny integer values that force
equal-value optima.
"""

import hashlib
import random

import pytest

from repro.knapsack import (
    MCKPClass,
    MCKPInstance,
    MCKPItem,
    SolverCache,
    solve_dp,
    solve_dp_reference,
)
from repro.knapsack.dp import _quantize_weight
from repro.knapsack.serialize import key_fingerprint
from repro.service import ShardSolver

RESOLUTION = 1_000
PLAIN_COUNT = 200
ADVERSARIAL_COUNT = 100


def plain_instance(rng: random.Random) -> MCKPInstance:
    classes = []
    for index in range(rng.randint(2, 5)):
        items = tuple(
            MCKPItem(
                # integer-valued floats: sums are exact, so optimal
                # values can be compared with == across solvers
                value=float(rng.randint(0, 50)),
                weight=rng.uniform(0.0, 12.0),
            )
            for _ in range(rng.randint(2, 5))
        )
        classes.append(MCKPClass(f"c{index}", items))
    return MCKPInstance(classes=tuple(classes), capacity=20.0)


def adversarial_instance(rng: random.Random) -> MCKPInstance:
    """Weights hugging the quantization grid; values full of ties."""
    capacity = 20.0
    unit = capacity / RESOLUTION
    offsets = (0.0, 0.49 * unit, 0.51 * unit, unit, -0.49 * unit)
    classes = []
    for index in range(rng.randint(2, 4)):
        items = []
        for _ in range(rng.randint(2, 4)):
            base = rng.randint(0, 12) * 1.0
            weight = max(0.0, base + rng.choice(offsets))
            # tiny integer values maximize equal-value alternatives
            items.append(
                MCKPItem(value=float(rng.randint(0, 3)), weight=weight)
            )
        classes.append(MCKPClass(f"c{index}", tuple(items)))
    return MCKPInstance(classes=tuple(classes), capacity=capacity)


def build_corpus():
    rng = random.Random(20140601)  # DAC'14, for the grep trail
    corpus = [plain_instance(rng) for _ in range(PLAIN_COUNT)]
    corpus += [adversarial_instance(rng) for _ in range(ADVERSARIAL_COUNT)]
    return corpus


def quantized_weight(selection) -> int:
    unit = selection.instance.capacity / RESOLUTION
    total = 0
    for cls in selection.instance.classes:
        item = cls.items[selection.choices[cls.class_id]]
        total += _quantize_weight(item.weight, unit)
    return total


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture(scope="module")
def serial(corpus):
    """The serial solve_dp answers — the bit-identity baseline."""
    return [
        solve_dp(instance, resolution=RESOLUTION) for instance in corpus
    ]


@pytest.fixture(scope="module")
def reference(corpus):
    """The reference-DP answers — the optimum-equivalence oracle."""
    return [
        solve_dp_reference(instance, resolution=RESOLUTION)
        for instance in corpus
    ]


def assert_bit_identical(selection, baseline, instance):
    if baseline is None:
        assert selection is None
        return
    assert selection is not None
    assert selection.choices == baseline.choices
    assert selection.total_value == baseline.total_value
    assert selection.total_weight == baseline.total_weight
    assert selection.instance is instance


def test_corpus_contract(corpus, reference):
    """The corpus stays large and interesting: 300+ instances, a real
    adversarial share, and both feasible and infeasible outcomes."""
    assert len(corpus) >= 300
    assert ADVERSARIAL_COUNT >= 50
    feasible = sum(1 for ref in reference if ref is not None)
    assert 0 < feasible < len(corpus)


def test_optimum_equivalence_with_reference(corpus, serial, reference):
    """Both exact DPs agree on feasibility, optimal value, and the
    minimal quantized weight of the optimum (values are integer-valued
    floats by corpus construction, so == is exact)."""
    disagreements = 0
    for instance, fast, ref in zip(corpus, serial, reference):
        if ref is None:
            assert fast is None
            continue
        assert fast is not None
        assert fast.total_value == ref.total_value
        assert fast.total_weight <= instance.capacity + 1e-9
        assert quantized_weight(fast) == quantized_weight(ref)
        if fast.choices != ref.choices:
            disagreements += 1
    # the adversarial sub-corpus must actually exercise tie-breaking:
    # if every argmax coincided, the ties we engineered never happened
    assert disagreements > 0


def test_cache_hit_path_is_bit_identical_to_serial(corpus, serial):
    cache = SolverCache(maxsize=1024)
    for instance, baseline in zip(corpus, serial):
        miss = cache.solve(
            "dp", solve_dp, instance, resolution=RESOLUTION
        )
        hit = cache.solve(
            "dp", solve_dp, instance, resolution=RESOLUTION
        )
        assert_bit_identical(miss, baseline, instance)
        assert_bit_identical(hit, baseline, instance)
    assert cache.hits == len(corpus)
    assert cache.misses == len(corpus)


def test_batched_path_is_bit_identical_to_serial(corpus, serial):
    cache = SolverCache(maxsize=1024)
    entries = [
        ("dp", instance, {"resolution": RESOLUTION})
        for instance in corpus
    ]
    solver = ShardSolver(cache)
    # batch sizes mimic service micro-batches; the second pass runs
    # entirely on cache hits and must not drift
    first_pass = []
    for start in range(0, len(entries), 16):
        first_pass += solver.solve_batch(entries[start:start + 16])
    second_pass = solver.solve_batch(entries)
    assert cache.hits >= len(entries)
    for selection, baseline, instance in zip(first_pass, serial, corpus):
        assert_bit_identical(selection, baseline, instance)
    for selection, baseline, instance in zip(second_pass, serial, corpus):
        assert_bit_identical(selection, baseline, instance)


def churned_sibling(instance, rng: random.Random) -> MCKPInstance:
    """A near-miss neighbour: same classes except the last one."""
    mutated = MCKPClass(
        instance.classes[-1].class_id,
        tuple(
            MCKPItem(
                value=float(rng.randint(0, 50)),
                weight=rng.uniform(0.0, 12.0),
            )
            for _ in range(rng.randint(2, 5))
        ),
    )
    return MCKPInstance(
        classes=instance.classes[:-1] + (mutated,),
        capacity=instance.capacity,
    )


@pytest.mark.parametrize(
    "path", ["scratch", "cached_hit", "delta_partial_hit"]
)
def test_every_solver_path_is_bit_identical(corpus, serial, path):
    """The whole corpus through each service solve path: the answer is
    bit-for-bit the serial ``solve_dp`` one, whatever route it took."""
    from repro.knapsack import solve_delta

    if path == "scratch":
        # the delta engine with no state IS the scratch route the
        # service uses to seed its warm-start index
        for instance, baseline in zip(corpus, serial):
            result = solve_delta(instance, resolution=RESOLUTION)
            assert result.reused_layers == 0
            assert_bit_identical(result.selection, baseline, instance)
    elif path == "cached_hit":
        cache = SolverCache(maxsize=1024)
        for instance, baseline in zip(corpus, serial):
            cache.solve("dp", solve_dp, instance, resolution=RESOLUTION)
            hit = cache.solve(
                "dp", solve_dp, instance, resolution=RESOLUTION
            )
            assert_bit_identical(hit, baseline, instance)
        assert cache.hits == len(corpus)
    else:  # delta_partial_hit
        rng = random.Random(777)
        warm_started = 0
        for instance, baseline in zip(corpus, serial):
            sibling = churned_sibling(instance, rng)
            state = solve_delta(sibling, resolution=RESOLUTION).state
            result = solve_delta(
                instance, resolution=RESOLUTION, state=state
            )
            warm_started += result.reused_layers > 0
            assert_bit_identical(result.selection, baseline, instance)
        # siblings differ only in the last class, so virtually every
        # solve must actually have warm-started — no silent fallback
        assert warm_started >= len(corpus) * 9 // 10


def test_shard_solver_near_miss_path_is_bit_identical(corpus, serial):
    """The service-level delta route: a batch of churned siblings seeds
    the cache's state index, then the original corpus arrives and must
    be answered partly via ``probe_delta`` warm starts — bit-identical,
    with the near-miss counters actually moving."""
    rng = random.Random(424242)
    subset = list(range(0, len(corpus), 5))  # every 5th instance
    cache = SolverCache(maxsize=1024, delta_maxstates=len(subset) + 1)
    solver = ShardSolver(cache)
    siblings = [
        ("dp", churned_sibling(corpus[i], rng), {"resolution": RESOLUTION})
        for i in subset
    ]
    solver.solve_batch(siblings)
    results = solver.solve_batch(
        [("dp", corpus[i], {"resolution": RESOLUTION}) for i in subset]
    )
    for index, selection in zip(subset, results):
        assert_bit_identical(selection, serial[index], corpus[index])
    assert cache.near_hits > 0
    assert solver.delta_solves > 0
    assert solver.delta_layers_reused > 0


def churned_batches(corpus, seed: int = 2014):
    """A seeded stream of service-shaped batches over the corpus: exact
    repeats, in-batch duplicates, churned siblings of recent instances
    and a heuristic share."""
    rng = random.Random(seed)
    recent = []
    batches = []
    for _ in range(40):
        batch = []
        for _ in range(rng.randint(1, 12)):
            roll = rng.random()
            if recent and roll < 0.35:
                instance = rng.choice(recent)
            elif recent and roll < 0.75:
                instance = churned_sibling(rng.choice(recent), rng)
            else:
                instance = corpus[rng.randrange(len(corpus))]
            recent = (recent + [instance])[-24:]
            if rng.random() < 0.15:
                batch.append(("heu_oe", instance, {}))
            else:
                batch.append(("dp", instance, {"resolution": RESOLUTION}))
        batches.append(batch)
    return batches


#: what ``churned_batches`` leaves behind (267 entries in 40 batches)
PINNED_STATS = {
    "hits": 67, "misses": 200, "near_hits": 48, "entries": 48,
    "delta_states": 8,
}
PINNED_DELTA = (48, 99)  # delta solves, DP layers they reused
PINNED_ORDER = "7e66723eb268a0ce"


def test_churned_stream_leaves_pinned_cache_counters(corpus):
    """Every cache counter, the LRU order of entries and delta states,
    and the delta counters after a churned stream are pinned: a
    restructure of the batch solver must probe, store and evict in
    exactly the order it always has.  The cache is small enough that
    both tables evict."""
    cache = SolverCache(maxsize=48, delta_maxstates=8)
    solver = ShardSolver(cache)
    for batch in churned_batches(corpus):
        solver.solve_batch(batch)
    stats = cache.stats
    assert {
        name: stats[name]
        for name in ("hits", "misses", "near_hits", "entries", "delta_states")
    } == PINNED_STATS
    assert (solver.delta_solves, solver.delta_layers_reused) == PINNED_DELTA
    order = ",".join(key_fingerprint(key) for key in cache.keys())
    order += ";" + ",".join(
        key_fingerprint(key) for key, _ in cache.hot_states(8)
    )
    digest = hashlib.blake2b(order.encode(), digest_size=8).hexdigest()
    assert digest == PINNED_ORDER


def cache_trail(solver):
    """Everything a batch leaves in the cache: counters, entries with
    their choices and hit counts in LRU order, delta-state order, and
    the delta counters."""
    cache = solver.cache
    return (
        cache.stats,
        [
            (key, entry.choices, entry.hits)
            for key, entry in cache._entries.items()
        ],
        [key for key, _ in cache.hot_states(cache.delta_maxstates)],
        solver.delta_solves,
        solver.delta_layers_reused,
    )


def solve_or_error(solve, batch):
    try:
        return solve(batch)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_loop_hit_prefix_then_suffix_equals_one_solve_batch(corpus):
    """The service answers a batch's leading exact hits on the loop
    (``answer_hits``) and sends only the rest to ``solve_batch``.  Over
    a churned stream that mixes exact hits, misses, in-batch
    duplicates, near hits, ``heu_oe`` entries, cached infeasible
    verdicts and an unknown solver, that split must return the same
    selections and leave the cache exactly as one ``solve_batch`` of
    the whole batch does, batch after batch."""
    rng = random.Random(28)
    whole = ShardSolver(SolverCache(maxsize=48, delta_maxstates=8))
    split = ShardSolver(SolverCache(maxsize=48, delta_maxstates=8))
    infeasible = MCKPInstance(
        classes=(MCKPClass("c0", (MCKPItem(value=1.0, weight=30.0),)),),
        capacity=20.0,
    )
    assert solve_dp(infeasible, resolution=RESOLUTION) is None

    def split_solve(batch):
        head = split.answer_hits(batch)
        prefixes.append((len(head), len(batch)))
        verdicts.extend(
            choice is None for (_, instance, _), choice in zip(batch, head)
            if instance is infeasible
        )
        return head + split.solve_batch(batch[len(head):])

    prefixes = []
    verdicts = []  # loop-side answers for the infeasible instance
    recent = []
    errors = 0
    for number, churned in enumerate(churned_batches(corpus, seed=28)):
        # lead with recent entries, so hit prefixes of every length occur
        batch = rng.sample(recent, min(len(recent), rng.randint(0, 4)))
        batch += churned
        if number % 4 == 0:
            where = rng.randint(0, len(batch))
            batch.insert(
                where, ("dp", infeasible, {"resolution": RESOLUTION})
            )
        if number % 13 == 12:
            batch.insert(rng.randint(0, len(batch)), ("nope", corpus[0], {}))
        expected = solve_or_error(whole.solve_batch, batch)
        got = solve_or_error(split_solve, batch)
        if isinstance(expected, str):
            errors += 1
            assert got == expected
        else:
            assert len(got) == len(expected) == len(batch)
            for (_, instance, _), a, b in zip(batch, expected, got):
                if a is None:
                    assert b is None
                else:
                    assert b is not None and b.choices == a.choices
                    assert b.instance is instance
        assert cache_trail(split) == cache_trail(whole)
        recent = (recent + [e for e in batch if e[0] != "nope"])[-24:]
    answered = [k for k, _ in prefixes]
    assert errors >= 2
    assert whole.cache.near_hits > 0 and whole.delta_solves > 0
    assert any(k == n for k, n in prefixes)  # never hopped
    assert any(0 < k < n for k, n in prefixes)  # hopped with a suffix
    assert answered.count(0) > 0 and sum(answered) > 50
    assert verdicts and all(verdicts)  # cached None verdicts answered


def test_energy_odm_matches_brute_force_enumerator():
    """Differential pin for the energy-aware ODM path.

    Blended instances carry negative and non-integer item values, which
    none of the corpus above exercises; enumerate every selection of a
    quantized copy (the exact feasible region the DP sees) and demand
    agreement on feasibility and the optimal value.  A mildly
    overloaded sub-corpus keeps infeasible outcomes in the mix.
    """
    import math

    from repro.core.odm import build_mckp
    from repro.knapsack import solve_brute_force
    from repro.scenarios import EnergyObjective, ScenarioSpec
    from repro.scenarios.sweep import _quantized_copy
    from repro.scenarios.generator import generate_scenario

    objective = EnergyObjective(benefit_weight=1.0, energy_weight=8.0)
    specs = (
        ScenarioSpec(num_tasks=4, num_benefit_points=2, util_cap=0.9,
                     energy_profile="radio_heavy"),
        ScenarioSpec(num_tasks=4, num_benefit_points=2, util_cap=1.4),
    )
    feasible = infeasible = 0
    for seed in range(30):
        for spec in specs:
            tasks = generate_scenario(spec, seed)
            instance = build_mckp(tasks, objective=objective)
            fast = solve_dp(instance, resolution=RESOLUTION)
            exact = solve_brute_force(
                _quantized_copy(instance, RESOLUTION)
            )
            assert (fast is None) == (exact is None)
            if fast is None:
                infeasible += 1
                continue
            feasible += 1
            assert math.isclose(
                fast.total_value, exact.total_value,
                rel_tol=1e-9, abs_tol=1e-9,
            )
    # the pin only means something if both outcomes actually occurred
    assert feasible > 0
    assert infeasible > 0
