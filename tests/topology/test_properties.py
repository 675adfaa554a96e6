"""Hypothesis properties of the routed choice-group expansion.

Three invariants of :func:`repro.core.odm.build_mckp` topology mode:

* **per-class min-weight existence** — every class keeps exactly one
  local item with the Theorem 3 local density, every offload item's
  weight is the per-server §3 demand rate, and (because the strategy
  bounds local utilization below 1) the instance is always feasible
  within the budget;
* **relabel invariance** — renaming the servers changes only the item
  tags: the canonical fingerprint is unchanged and the DP returns the
  identical selection, with tags corresponding through the renaming;
* **pruning is a per-class item subset** — restricting the allowed
  servers never removes a class, never invents an item, and never
  increases the optimum; pruning every server leaves exactly the
  local-only reduction.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.benefit import BenefitFunction, BenefitPoint
from repro.core.odm import _routed_demand_rate, build_mckp
from repro.core.task import OffloadableTask, TaskSet
from repro.knapsack import canonical_instance_key, solve_dp

RESOLUTION = 1_000
#: Candidate offload response times (deadline = 1.0 in the strategy).
GRID = (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)


@st.composite
def benefit_functions(draw, local: float) -> BenefitFunction:
    fracs = sorted(draw(st.sets(st.sampled_from(GRID), max_size=3)))
    value = local
    points = [BenefitPoint(0.0, float(local))]
    for frac in fracs:
        value += draw(st.integers(min_value=1, max_value=8))
        points.append(BenefitPoint(frac, float(value)))
    return BenefitFunction(points)


@st.composite
def federations(draw):
    """Up to 3 unit-period tasks x up to 3 servers, with optional
    per-server §3 bounds.  Local utilization stays <= 0.9, so the
    all-local configuration — and therefore the instance — is always
    feasible."""
    num_tasks = draw(st.integers(min_value=1, max_value=3))
    tasks = TaskSet()
    for i in range(num_tasks):
        wcet = draw(st.integers(min_value=1, max_value=6)) / 20.0
        local = float(draw(st.integers(min_value=0, max_value=3)))
        tasks.add(
            OffloadableTask(
                task_id=f"t{i}",
                wcet=wcet,
                period=1.0,
                setup_time=0.02,
                compensation_time=wcet,
                post_time=0.005,
                benefit=draw(benefit_functions(local)),
            )
        )
    topology = {}
    bounds = {}
    for s in range(draw(st.integers(min_value=1, max_value=3))):
        per_task = {}
        per_bounds = {}
        for task in tasks:
            if not draw(st.booleans()):
                continue
            per_task[task.task_id] = draw(
                benefit_functions(task.benefit.local_benefit)
            )
            if draw(st.booleans()):
                per_bounds[task.task_id] = draw(
                    st.sampled_from((0.3, 0.6))
                )
        topology[f"s{s}"] = per_task
        if per_bounds:
            bounds[f"s{s}"] = per_bounds
    return tasks, topology, (bounds or None)


@settings(max_examples=60)
@given(federations())
def test_choice_groups_preserve_theorem3_weights(case):
    """Min-weight existence + per-item Theorem 3 consistency."""
    tasks, topology, bounds = case
    instance = build_mckp(tasks, topology=topology, server_bounds=bounds)
    by_id = {task.task_id: task for task in tasks}
    assert len(instance.classes) == len(tasks)
    for cls in instance.classes:
        task = by_id[cls.class_id]
        local_items = [i for i in cls.items if i.tag == (None, 0.0)]
        assert len(local_items) == 1
        assert local_items[0].weight == task.wcet / min(
            task.period, task.deadline
        )
        for item in cls.items:
            if item.tag == (None, 0.0):
                continue
            server_id, r = item.tag
            bound = task.server_response_bound
            if bounds is not None:
                bound = bounds.get(server_id, {}).get(
                    task.task_id, bound
                )
            assert item.weight == _routed_demand_rate(
                task, topology[server_id][task.task_id], r, bound
            )
    # the strategy caps local utilization at 0.9, so the all-local
    # selection always exists and the optimum respects the budget
    assert sum(
        min(i.weight for i in cls.items) for cls in instance.classes
    ) <= 1.0 + 1e-9
    selection = solve_dp(instance, resolution=RESOLUTION)
    assert selection is not None
    assert selection.total_weight <= 1.0 + 1e-9


@settings(max_examples=60)
@given(federations(), st.permutations(range(3)))
def test_relabeling_servers_preserves_fingerprint_and_selection(
    case, perm
):
    tasks, topology, bounds = case
    mapping = {
        sid: f"node-{perm[i % 3]}-{i}"
        for i, sid in enumerate(topology)
    }
    relabeled = {
        mapping[sid]: fns for sid, fns in topology.items()
    }
    rebounds = (
        None
        if bounds is None
        else {mapping[sid]: b for sid, b in bounds.items()}
    )
    original = build_mckp(
        tasks, topology=topology, server_bounds=bounds
    )
    renamed = build_mckp(
        tasks, topology=relabeled, server_bounds=rebounds
    )
    # tags are excluded from the canonical key, so renaming servers
    # cannot change the fingerprint — the cache-identity trick
    assert canonical_instance_key(original) == canonical_instance_key(
        renamed
    )
    sel_a = solve_dp(original, resolution=RESOLUTION)
    sel_b = solve_dp(renamed, resolution=RESOLUTION)
    assert sel_a is not None and sel_b is not None
    assert sel_a.choices == sel_b.choices
    assert sel_a.total_value == sel_b.total_value
    assert sel_a.total_weight == sel_b.total_weight
    for cls in original.classes:
        tag_a = sel_a.item_for(cls.class_id).tag
        tag_b = sel_b.item_for(cls.class_id).tag
        if tag_a == (None, 0.0):
            assert tag_b == (None, 0.0)
        else:
            assert tag_b == (mapping[tag_a[0]], tag_a[1])


@settings(max_examples=60)
@given(
    federations(),
    st.sets(st.sampled_from(("s0", "s1", "s2"))),
)
def test_pruning_is_item_subset_and_never_gains(case, pruned):
    tasks, topology, bounds = case
    pruned = {sid for sid in pruned if sid in topology}
    allowed = set(topology) - pruned
    full = build_mckp(tasks, topology=topology, server_bounds=bounds)
    restricted = build_mckp(
        tasks,
        topology=topology,
        allowed_servers=allowed,
        server_bounds=bounds,
    )
    for cls_full, cls_cut in zip(full.classes, restricted.classes):
        assert cls_full.class_id == cls_cut.class_id
        full_items = {
            (i.value, i.weight, i.tag) for i in cls_full.items
        }
        for item in cls_cut.items:
            assert (item.value, item.weight, item.tag) in full_items
            assert (
                item.tag == (None, 0.0) or item.tag[0] in allowed
            )
    sel_full = solve_dp(full, resolution=RESOLUTION)
    sel_cut = solve_dp(restricted, resolution=RESOLUTION)
    assert sel_full is not None and sel_cut is not None
    assert sel_cut.total_value <= sel_full.total_value + 1e-9
    if not allowed:
        # every server pruned -> exactly the local-only reduction
        assert all(len(cls.items) == 1 for cls in restricted.classes)
        assert all(
            sel_cut.item_for(cls.class_id).tag == (None, 0.0)
            for cls in restricted.classes
        )
