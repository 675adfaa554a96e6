"""Differential wall for the topology-routed MCKP.

Hundreds of seeded random federations, two oracles:

* ``solve_brute_force`` enumerates every server×level assignment on a
  DP-grid-quantized copy of the routed instance (the corpus is built so
  the enumeration always stays tractable), so the topology-mode
  ``solve_dp`` must report the identical optimal value — and agree on
  infeasibility — on *every* instance, with ``solve_dp_reference``
  pinned alongside;
* with exactly one server whose benefit functions equal the tasks' own,
  the topology instance must share the plain single-server reduction's
  canonical fingerprint and the DP must return the *identical*
  selection — same choices, same value, same weight, bit for bit.
"""

import random

import pytest

from repro.core.benefit import BenefitFunction, BenefitPoint
from repro.core.odm import (
    DEFAULT_SERVER,
    OffloadingDecisionManager,
    build_mckp,
)
from repro.core.task import OffloadableTask, Task, TaskSet
from repro.knapsack import (
    canonical_instance_key,
    solve_brute_force,
    solve_dp,
    solve_dp_reference,
)
from repro.scenarios.sweep import _quantized_copy

#: 20 parametrized seeds x 10 federations each = 200 differential cases
#: per test (the corpus-size contract of the issue).
NUM_SEEDS = 20
INSTANCES_PER_SEED = 10
#: One DP unit = 1/400 of the Theorem 3 budget; the brute-force oracle
#: runs on the quantized copy so it explores exactly the DP's feasible
#: region.
RESOLUTION = 400
VALUE_TOL = 1e-9

#: Candidate response times as deadline fractions.  The 1.05 entry is
#: structurally infeasible on purpose (r >= D_i) and must be filtered.
_FRACS = (0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.05)


def _random_benefit(
    rng: random.Random, deadline: float, local: float
) -> BenefitFunction:
    """A random non-decreasing benefit function anchored at ``local``."""
    value = local
    points = [BenefitPoint(0.0, float(local))]
    for frac in sorted(rng.sample(_FRACS, rng.randint(0, 3))):
        value += rng.randint(1, 10)
        points.append(BenefitPoint(deadline * frac, float(value)))
    return BenefitFunction(points)


def _random_task(rng: random.Random, index: int) -> Task:
    """A random task; ~1 in 5 is plain (never offloadable)."""
    period = rng.choice((0.5, 1.0, 2.0))
    wcet = period * rng.uniform(0.05, 0.35)
    if rng.random() < 0.2:
        return Task(f"t{index}", wcet, period)
    return OffloadableTask(
        task_id=f"t{index}",
        wcet=wcet,
        period=period,
        setup_time=period * rng.uniform(0.01, 0.05),
        compensation_time=wcet * rng.uniform(0.4, 1.0),
        post_time=period * rng.uniform(0.001, 0.005),
        benefit=_random_benefit(rng, period, float(rng.randint(0, 3))),
        server_response_bound=(
            period * 0.5 if rng.random() < 0.3 else None
        ),
    )


def _random_federation(rng: random.Random):
    """Random tasks + per-server benefit functions + optional bounds.

    Servers cover a random subset of the offloadable tasks; ~1 in 3
    (server, task) pairs additionally advertises a per-server §3 bound
    so the guaranteed-result branch is exercised throughout the corpus.
    """
    tasks = TaskSet(
        [_random_task(rng, i) for i in range(rng.randint(2, 4))]
    )
    topology = {}
    bounds = {}
    for s in range(rng.randint(1, 3)):
        per_task = {}
        per_bounds = {}
        for task in tasks:
            if not isinstance(task, OffloadableTask):
                continue
            if rng.random() < 0.2:
                continue  # this server does not offer the task
            per_task[task.task_id] = _random_benefit(
                rng, task.deadline, task.benefit.local_benefit
            )
            if rng.random() < 0.3:
                per_bounds[task.task_id] = (
                    task.deadline * rng.choice((0.3, 0.6))
                )
        topology[f"s{s}"] = per_task
        if per_bounds:
            bounds[f"s{s}"] = per_bounds
    return tasks, topology, (bounds or None)


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_routed_dp_matches_brute_force_and_reference(seed):
    rng = random.Random(seed)
    for case in range(INSTANCES_PER_SEED):
        tasks, topology, bounds = _random_federation(rng)
        instance = build_mckp(
            tasks, topology=topology, server_bounds=bounds
        )
        label = f"seed={seed} case={case}"

        # structural sanity: one class per task, local item first, every
        # offload tag routed to a real server
        assert len(instance.classes) == len(tasks), label
        for cls in instance.classes:
            assert cls.items[0].tag == (None, 0.0), label
            for item in cls.items[1:]:
                server_id, r = item.tag
                assert server_id in topology, label
                assert r > 0 and item.weight > 0, label

        dp = solve_dp(instance, resolution=RESOLUTION)
        reference = solve_dp_reference(instance, resolution=RESOLUTION)
        # the corpus keeps classes/items small enough to enumerate
        enumeration = 1
        for cls in instance.classes:
            enumeration *= len(cls.items)
        assert 0 < enumeration <= 20_000, label
        exact = solve_brute_force(_quantized_copy(instance, RESOLUTION))

        if dp is None:
            assert reference is None, (
                f"reference solved dp-infeasible {label}"
            )
            assert exact is None, (
                f"brute force solved dp-infeasible {label}"
            )
            continue
        assert dp.is_feasible, label
        assert reference is not None, label
        assert exact is not None, label
        assert abs(dp.total_value - reference.total_value) <= VALUE_TOL, (
            f"dp={dp.total_value} != reference="
            f"{reference.total_value} on {label}"
        )
        assert abs(dp.total_value - exact.total_value) <= VALUE_TOL, (
            f"dp={dp.total_value} != brute={exact.total_value} on {label}"
        )


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_single_server_topology_is_bit_identical_to_plain(seed):
    """One server whose functions equal the tasks' own: same canonical
    fingerprint as the plain reduction, identical DP selection — and the
    decision manager's plain ``decide(tasks)`` (the one-node case of
    its single pipeline) equals ``solve_dp(build_mckp(tasks))`` in
    selection, value and weight."""
    rng = random.Random(1000 + seed)
    manager = OffloadingDecisionManager("dp", resolution=RESOLUTION)
    for case in range(INSTANCES_PER_SEED):
        tasks = TaskSet(
            [_random_task(rng, i) for i in range(rng.randint(2, 4))]
        )
        per_task = {
            task.task_id: task.benefit
            for task in tasks
            if isinstance(task, OffloadableTask)
        }
        topo_instance = build_mckp(tasks, topology={"only": per_task})
        plain = build_mckp(tasks)
        label = f"seed={seed} case={case}"

        assert canonical_instance_key(plain) == canonical_instance_key(
            topo_instance
        ), f"fingerprints diverge on {label}"

        dp_topo = solve_dp(topo_instance, resolution=RESOLUTION)
        dp_plain = solve_dp(plain, resolution=RESOLUTION)
        if dp_plain is None:
            assert dp_topo is None, label
            with pytest.raises(ValueError):
                manager.decide(tasks)
            continue
        assert dp_topo is not None, label
        # bit-identical, not approximately equal: the DP ran the same
        # instruction stream over the same floats
        assert dp_topo.choices == dp_plain.choices, label
        assert dp_topo.total_value == dp_plain.total_value, label
        assert dp_topo.total_weight == dp_plain.total_weight, label
        # tags differ only in spelling: (server, r) vs bare r
        for cls in plain.classes:
            topo_tag = dp_topo.item_for(cls.class_id).tag
            plain_tag = dp_plain.item_for(cls.class_id).tag
            if plain_tag == 0.0:
                assert topo_tag == (None, 0.0), label
            else:
                assert topo_tag == ("only", plain_tag), label

        if tasks.total_utilization > 1.0 + 1e-9:
            # the manager presupposes a feasible all-local baseline
            with pytest.raises(ValueError, match="exceeds 1"):
                manager.decide(tasks)
            continue
        decision = manager.decide(tasks)
        assert decision.placements == {
            cls.class_id: (
                (None, 0.0)
                if dp_plain.item_for(cls.class_id).tag == 0.0
                else (DEFAULT_SERVER, dp_plain.item_for(cls.class_id).tag)
            )
            for cls in plain.classes
        }, label
        assert decision.expected_benefit == dp_plain.total_value, label
        assert decision.total_demand_rate == dp_plain.total_weight, label


def test_differential_corpus_size():
    """The corpus honours the >=200-instances contract of the issue."""
    assert NUM_SEEDS * INSTANCES_PER_SEED >= 200
