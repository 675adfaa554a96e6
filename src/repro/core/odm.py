"""The Offloading Decision Manager (paper §3.3, §4, §5.2).

Given a task set with benefit functions, the ODM selects, for every
task, either local execution (``R_i = 0``) or one of its benefit
discretization points ``r_{i,j} > 0`` as the estimated worst-case
response time, maximizing the total (weighted) benefit subject to the
Theorem 3 schedulability budget.

The reduction to the multiple-choice knapsack problem follows §5.2
exactly:

* class ``i`` ↔ task ``τ_i``;
* the local item has weight ``w_{i,1} = C_i/T_i`` and value ``G_i(0)``;
* the offload item for point ``r_{i,j} > 0`` has weight
  ``w_{i,j} = (C^j_{i,1}+C^j_{i,2})/(D_i − r_{i,j})`` and value
  ``G_i(r_{i,j})``;
* the capacity is 1.

Structurally infeasible points (``r_{i,j} ≥ D_i`` or
``C^j_{i,1}+C^j_{i,2} > D_i − r_{i,j}``) are filtered before solving —
they could never be part of a feasible schedule regardless of the other
tasks.  Task weights (case-study importance values) scale the item
values, not the benefit functions themselves.

Several candidate servers extend each class to server × level items
(``build_mckp``'s topology mode).  :class:`OffloadingDecisionManager`
runs one pipeline for both: a single-server decision is the one-node
topology of the tasks' own benefit functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..knapsack import (
    MCKPClass,
    MCKPInstance,
    MCKPItem,
    SOLVERS,
    Selection,
    SolverCache,
)
from .benefit import BenefitFunction
from .schedulability import (
    OffloadAssignment,
    SchedulabilityResult,
    theorem3_test,
)
from .task import OffloadableTask, TaskSet

__all__ = [
    "DEFAULT_SERVER",
    "OffloadingDecision",
    "OffloadingDecisionManager",
    "build_mckp",
    "offload_assignments",
    "one_node_topology",
    "read_placements",
]

#: The one node of a single-server decision: the server the tasks' own
#: benefit functions describe.
DEFAULT_SERVER = "server"

Placements = Mapping[str, Tuple[Optional[str], float]]
ServerBenefits = Mapping[str, Mapping[str, BenefitFunction]]
ServerBounds = Mapping[str, Mapping[str, float]]


@dataclass(frozen=True)
class OffloadingDecision:
    """The ODM's output: per-task ``(server, R_i)`` placements plus evidence.

    ``placements`` maps every task id to ``(server_id, R_i)``; local
    execution is ``(None, 0.0)``.  ``expected_benefit`` is the MCKP
    objective value Σ G_i(R_i) (weighted).  ``schedulability``
    re-verifies the decision against Theorem 3 — by construction it is
    always feasible, and the ODM asserts this.  ``pruned_servers`` names
    the servers whose breaker was open when the decision was made.
    """

    placements: Placements
    expected_benefit: float
    total_demand_rate: float
    schedulability: SchedulabilityResult
    solver: str
    pruned_servers: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.pruned_servers)

    @cached_property
    def response_times(self) -> Dict[str, float]:
        """The plain ``task_id -> R_i`` view the scheduler consumes."""
        return {tid: r for tid, (_, r) in self.placements.items()}

    @property
    def routes(self) -> Dict[str, str]:
        """``task_id -> server_id`` for the offloaded tasks only."""
        return {
            tid: server
            for tid, (server, r) in self.placements.items()
            if server is not None and r > 0
        }

    def server_of(self, task_id: str) -> Optional[str]:
        return self.placements[task_id][0]

    @property
    def offloaded_task_ids(self) -> Tuple[str, ...]:
        return tuple(
            sorted(tid for tid, r in self.response_times.items() if r > 0)
        )

    @property
    def local_task_ids(self) -> Tuple[str, ...]:
        return tuple(
            sorted(tid for tid, r in self.response_times.items() if r == 0)
        )

    def assignments(self) -> List[OffloadAssignment]:
        """The offload assignments in :mod:`repro.core.schedulability` form."""
        return [
            OffloadAssignment(tid, r)
            for tid, r in sorted(self.response_times.items())
            if r > 0
        ]

    def response_time_of(self, task_id: str) -> float:
        return self.response_times[task_id]


def one_node_topology(tasks: TaskSet) -> Dict[str, Dict[str, BenefitFunction]]:
    """The single-server case as a topology: every offloadable task's own
    benefit function on :data:`DEFAULT_SERVER`."""
    return {
        DEFAULT_SERVER: {
            task.task_id: task.benefit for task in tasks.offloadable_tasks
        }
    }


def read_placements(
    instance: MCKPInstance, selection: Selection
) -> Dict[str, Tuple[Optional[str], float]]:
    """Read the ``(server, R_i)`` tags of a topology-form selection."""
    placements: Dict[str, Tuple[Optional[str], float]] = {}
    for cls in instance.classes:
        server_id, r = selection.item_for(cls.class_id).tag
        placements[cls.class_id] = (server_id, float(r))
    return placements


def offload_assignments(placements: Placements) -> List[OffloadAssignment]:
    """The offloaded placements as Theorem 3 assignments."""
    return [
        OffloadAssignment(tid, r)
        for tid, (_server, r) in placements.items()
        if r > 0
    ]


def _offload_item(
    task: OffloadableTask,
    point,
    objective,
    tag,
    response_bound: "Optional[float]",
) -> Optional[MCKPItem]:
    """One benefit point → one MCKP item, or ``None`` when structurally
    infeasible (``r ≥ D_i`` or the phases cannot fit the slack).

    ``response_bound`` is the §3 pessimistic server bound in force for
    *this* item's server: when ``r`` meets it the result is guaranteed
    and the second phase budgets ``C_{i,3}`` instead of ``C_{i,2}``.
    The caller passes the task-level bound in single-server mode and the
    per-server bound in topology mode — re-verifying the §3 guarantee
    for whichever server the item would route to.
    """
    slack = task.deadline - point.response_time
    if slack <= 0:
        return None
    setup = (
        point.setup_time
        if point.setup_time is not None
        else task.setup_time
    )
    guaranteed = (
        response_bound is not None
        and point.response_time >= response_bound - 1e-12
    )
    if guaranteed:
        # §3 extension: guaranteed result -> post-processing budget
        # instead of compensation
        second = task.post_time
    else:
        second = (
            point.compensation_time
            if point.compensation_time is not None
            else task.compensation_time
        )
    if setup + second > slack + 1e-12:
        return None
    if objective is not None:
        value = objective.offload_value(task, point)
    else:
        value = point.benefit * task.weight
    return MCKPItem(value=value, weight=(setup + second) / slack, tag=tag)


def build_mckp(
    tasks: TaskSet,
    objective=None,
    topology: "Optional[Mapping[str, Mapping[str, object]]]" = None,
    allowed_servers=None,
    server_bounds: "Optional[Mapping[str, Mapping[str, float]]]" = None,
) -> MCKPInstance:
    """Construct the §5.2 MCKP instance for ``tasks``.

    Every task contributes a class whose first item is the (always
    present) local choice; offloadable tasks additionally contribute one
    item per structurally feasible benefit point.  Item tags carry the
    response time so decisions can be read back off a
    :class:`~repro.knapsack.Selection`.

    ``objective`` optionally replaces the default weighted-benefit item
    values with a custom scoring.  It is any object exposing
    ``local_value(task) -> float`` and
    ``offload_value(task, point) -> float`` (duck-typed; see
    :class:`repro.scenarios.energy.EnergyObjective`).  Objectives change
    item *values* only — weights, and therefore the set of feasible
    selections and the Theorem 3 guarantee, are identical to the plain
    reduction.

    **Topology mode.**  ``topology`` maps
    ``server_id -> {task_id -> BenefitFunction}`` — the per-server
    benefit functions the estimator measured for each task *on that
    server*.  Choice groups then span server×level: each class holds the
    local item (tag ``(None, 0.0)``) plus, for every server offering the
    task, one item per structurally feasible point of that server's
    function (tag ``(server_id, r)``).  Exactly-one-per-class decides
    offload-or-not, the route, and the level in a single MCKP.  Item
    *weights* use the same Theorem 3 formula regardless of server (the
    client-side demand does not care where the request went), but the §3
    guaranteed-result test is re-applied per server through
    ``server_bounds[server_id][task_id]`` (falling back to the task's
    own ``server_response_bound``), so an item budgets ``C_{i,3}`` only
    when *its* server guarantees the result.

    ``allowed_servers`` (topology mode only) restricts which servers
    contribute items — the hook the per-server circuit breakers use to
    prune choice groups for open-breaker servers.  Pruning removes
    items, never classes: the local item survives unconditionally, so a
    fully pruned topology degrades to exactly the local-only reduction.

    With exactly one server whose benefit functions equal the tasks' own
    (and no distinct bound), the topology-mode instance has the same
    values and weights, in the same order, as the single-server
    reduction — the DP then runs the identical instruction stream and
    the routed solve is bit-for-bit the single-server solve (pinned by
    ``tests/topology/test_routed_differential.py``).
    """
    if topology is None and allowed_servers is not None:
        raise ValueError("allowed_servers requires topology mode")
    if topology is None and server_bounds is not None:
        raise ValueError("server_bounds requires topology mode")
    classes: List[MCKPClass] = []
    for task in tasks:
        local_density = task.wcet / min(task.period, task.deadline)
        if objective is not None:
            local_value = objective.local_value(task)
        elif topology is not None:
            # All servers describe the same local execution; they should
            # agree, but measurement noise is tolerated by taking the
            # max.
            local_values = [
                per_task[task.task_id].local_benefit
                for per_task in topology.values()
                if task.task_id in per_task
            ]
            if isinstance(task, OffloadableTask):
                local_values.append(task.benefit.local_benefit)
            local_value = max(local_values, default=0.0) * task.weight
        elif isinstance(task, OffloadableTask):
            local_value = task.benefit.local_benefit * task.weight
        else:
            local_value = 0.0
        local_tag = 0.0 if topology is None else (None, 0.0)
        items: List[MCKPItem] = [
            MCKPItem(value=local_value, weight=local_density, tag=local_tag)
        ]
        if isinstance(task, OffloadableTask):
            if topology is None:
                sources = [(None, task.benefit)]
            else:
                sources = [
                    (server_id, per_task[task.task_id])
                    for server_id, per_task in topology.items()
                    if task.task_id in per_task
                    and (
                        allowed_servers is None
                        or server_id in allowed_servers
                    )
                ]
            for server_id, fn in sources:
                bound = task.server_response_bound
                if server_bounds is not None and server_id is not None:
                    bound = server_bounds.get(server_id, {}).get(
                        task.task_id, bound
                    )
                for point in fn.points:
                    if point.is_local:
                        continue
                    tag = (
                        point.response_time
                        if topology is None
                        else (server_id, point.response_time)
                    )
                    item = _offload_item(task, point, objective, tag, bound)
                    if item is not None:
                        items.append(item)
        classes.append(MCKPClass(class_id=task.task_id, items=tuple(items)))
    return MCKPInstance(classes=tuple(classes), capacity=1.0)


class OffloadingDecisionManager:
    """The one §5 pipeline: reduce → prune → solve → verify.

    Every decision is a topology decision: ``decide(tasks)`` is the
    one-node case (the tasks' own benefit functions on
    :data:`DEFAULT_SERVER`), ``decide(tasks, server_benefits,
    server_bounds)`` routes across several servers.  Both build the
    topology-form MCKP (:func:`build_mckp`), drop the choice groups of
    servers whose breaker in :attr:`health` is open, solve (through the
    cache when there is one), read the ``(server, R_i)`` placements back
    and re-verify them twice: a strict per-server recomputation of every
    chosen item's demand rate, then :func:`theorem3_test`.  A one-node
    instance has the plain reduction's values and weights in the same
    order, so it solves bit-for-bit like it.

    Parameters
    ----------
    solver:
        Either a solver name from :data:`repro.knapsack.SOLVERS`
        (``"dp"``, ``"heu_oe"``, ``"branch_bound"``, ``"brute_force"``)
        or a callable ``MCKPInstance -> Optional[Selection]``.
    cache:
        An optional :class:`repro.knapsack.SolverCache` (or ``True`` for
        a private default-sized one).  The adaptive/health runtimes
        re-decide over an unchanged believed task set every decision
        window; with a cache those repeat solves are dictionary lookups,
        and a server whose breaker re-closes gets its original decision
        back bit-for-bit.
    objective:
        Optional item-value policy forwarded to :func:`build_mckp` —
        an object with ``local_value(task)`` and
        ``offload_value(task, point)``.  Values only; the feasible region
        and the Theorem 3 re-verification are unchanged.

    ``health`` is a :class:`~repro.runtime.health.BreakerBank` with
    default breakers; assign another bank to configure them.
    """

    def __init__(
        self,
        solver: str = "dp",
        cache: "Optional[SolverCache | bool]" = None,
        objective=None,
        **solver_kwargs,
    ) -> None:
        # runtime.health decides through this module: import lazily
        from ..runtime.health import BreakerBank

        if callable(solver):
            self._solve: Callable = solver
            self.solver_name = getattr(solver, "__name__", "custom")
        else:
            if solver not in SOLVERS:
                raise ValueError(
                    f"unknown solver {solver!r}; "
                    f"available: {sorted(SOLVERS)}"
                )
            self._solve = SOLVERS[solver]
            self.solver_name = solver
        self._solver_kwargs = solver_kwargs
        self.objective = objective
        if cache is True:
            cache = SolverCache()
        elif cache is False:
            cache = None
        # NOTE: not ``cache or None`` — an *empty* SolverCache has
        # ``len() == 0`` and is falsy, which used to silently disable
        # caching for every ``cache=True`` caller.
        self.cache: Optional[SolverCache] = cache
        self.health = BreakerBank()

    def decide(
        self,
        tasks: TaskSet,
        server_benefits: Optional[ServerBenefits] = None,
        server_bounds: Optional[ServerBounds] = None,
    ) -> OffloadingDecision:
        """Compute offloading decisions for ``tasks``.

        ``server_benefits[server_id][task_id]`` is the benefit function
        measured for that task on that server (default: the one-node
        topology of the tasks' own functions); ``server_bounds`` the
        per-server §3 guarantee bounds.  Open-breaker servers contribute
        no items; the local item always survives, so the fully degraded
        instance is exactly the local-only reduction.

        Raises ``ValueError`` when even the all-local configuration is
        infeasible (``Σ C_i/T_i > 1``) — the mechanism presupposes a
        feasible baseline, as both paper experiments do.
        """
        if len(tasks) == 0:
            raise ValueError(
                "cannot decide over an empty task set; add tasks first"
            )
        tasks.validate()
        if server_benefits is None:
            server_benefits = one_node_topology(tasks)
        open_servers = self.health.open_servers
        pruned = tuple(sid for sid in server_benefits if sid in open_servers)
        instance = build_mckp(
            tasks,
            objective=self.objective,
            topology=server_benefits,
            allowed_servers=(
                set(server_benefits) - set(pruned) if pruned else None
            ),
            server_bounds=server_bounds,
        )
        decision = self.decide_from_instance(
            tasks, instance, server_benefits, server_bounds
        )
        return replace(decision, pruned_servers=pruned) if pruned else decision

    def decide_from_instance(
        self,
        tasks: TaskSet,
        instance: MCKPInstance,
        server_benefits: Optional[ServerBenefits] = None,
        server_bounds: Optional[ServerBounds] = None,
    ) -> OffloadingDecision:
        """Solve + verify a pre-built topology-form MCKP for ``tasks``.

        Lets callers that compare several solvers on the *same* task set
        (e.g. the fig3 sweep) share one reduction,
        ``build_mckp(tasks, topology=one_node_topology(tasks))`` for the
        single-server case (the ``server_benefits`` default).
        """
        if server_benefits is None:
            server_benefits = one_node_topology(tasks)
        if self.cache is not None:
            selection: Optional[Selection] = self.cache.solve(
                self.solver_name,
                self._solve,
                instance,
                **self._solver_kwargs,
            )
        else:
            selection = self._solve(instance, **self._solver_kwargs)
        if selection is None:
            raise ValueError(
                "MCKP solver found no feasible selection although the "
                "all-local configuration is feasible; this indicates a "
                "solver bug"
            )
        placements = read_placements(instance, selection)
        _verify_demand(
            tasks, server_benefits, server_bounds, placements, selection
        )
        check = theorem3_test(
            _effective_tasks(tasks, placements, server_bounds),
            offload_assignments(placements),
        )
        if not check.feasible:
            raise AssertionError(
                "ODM produced a Theorem-3-infeasible decision "
                f"(demand rate {check.total_demand_rate:.6f}); the MCKP "
                "weights and the schedulability test have diverged"
            )
        return OffloadingDecision(
            placements=placements,
            expected_benefit=selection.total_value,
            total_demand_rate=selection.total_weight,
            schedulability=check,
            solver=self.solver_name,
        )

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """The unified 9-key cache stats, or ``None`` without a cache."""
        return None if self.cache is None else dict(self.cache.stats)


def _effective_tasks(
    tasks: TaskSet,
    placements: Placements,
    server_bounds: Optional[ServerBounds],
) -> TaskSet:
    """Tasks with each routed task's §3 bound set to its *chosen
    server's* bound, so the generic Theorem 3 test budgets the same
    second phase the routed MCKP did.  Identity when no per-server
    bounds are in play."""
    if not server_bounds:
        return tasks
    effective = TaskSet()
    for task in tasks:
        server_id, _r = placements[task.task_id]
        if isinstance(task, OffloadableTask) and server_id is not None:
            bound = server_bounds.get(server_id, {}).get(task.task_id)
            if bound is not None and bound != task.server_response_bound:
                task = replace(task, server_response_bound=bound)
        effective.add(task)
    return effective


def _routed_demand_rate(
    task: OffloadableTask,
    fn: BenefitFunction,
    response_time: float,
    bound: Optional[float],
) -> float:
    """Recompute one offloaded item's Theorem 3 demand rate from the
    chosen server's own data (not from the MCKP item)."""
    point = fn.point_at(response_time)
    setup = (
        point.setup_time if point.setup_time is not None else task.setup_time
    )
    if bound is not None and response_time >= bound - 1e-12:
        second = task.post_time
    else:
        second = (
            point.compensation_time
            if point.compensation_time is not None
            else task.compensation_time
        )
    return (setup + second) / (task.deadline - response_time)


def _verify_demand(
    tasks: TaskSet,
    server_benefits: ServerBenefits,
    server_bounds: Optional[ServerBounds],
    placements: Placements,
    selection: Selection,
) -> None:
    """Strict per-server re-verification of the Theorem 3 budget.

    Recomputes every chosen item's demand rate from the chosen server's
    own benefit point and §3 bound — independently of the MCKP items —
    and checks the total against both the selection's weight and the
    capacity.
    """
    total = 0.0
    by_id = {task.task_id: task for task in tasks}
    for tid, (server_id, r) in placements.items():
        task = by_id[tid]
        if server_id is None or r <= 0:
            total += task.wcet / min(task.period, task.deadline)
            continue
        assert isinstance(task, OffloadableTask)
        bound = task.server_response_bound
        if server_bounds is not None:
            bound = server_bounds.get(server_id, {}).get(tid, bound)
        total += _routed_demand_rate(
            task, server_benefits[server_id][tid], r, bound
        )
    if abs(total - selection.total_weight) > 1e-9:
        raise AssertionError(
            "per-server demand recomputation disagrees with the "
            f"MCKP selection: {total} != {selection.total_weight}"
        )
    if total > 1.0 + 1e-9:
        raise AssertionError(
            f"decision exceeds the Theorem 3 budget: {total}"
        )
