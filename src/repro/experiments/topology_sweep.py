"""Figure-2-style topology sweep: routed decisions across federations.

The topology analogue of the scenario campaign
(:mod:`repro.scenarios.campaign`): expand the topology matrix (server
count × heterogeneity spread × link quality), and for every instance
generate a task set, build the topology, estimate per-server benefit
functions through each server's link, and take a routed decision with
:class:`~repro.core.odm.OffloadingDecisionManager`.

Every instance is audited five ways:

* the usual differential audit — ``solve_dp`` vs the
  ``solve_dp_reference`` oracle on the routed instance, plus an exact
  brute force over server×level assignments on a DP-grid-quantized copy
  when the enumeration is small enough;
* **single-server bit-identity** — on ``servers=n1`` cells, the
  topology-mode instance must share its canonical fingerprint with the
  plain single-server reduction over the same benefit functions, and
  the DP must return the identical selection (same choices, same value,
  same weight, bit for bit);
* **prune monotonicity** — opening the busiest server's breaker and
  re-deciding must never increase the optimum and must route nothing
  to the dead server;
* **recovery bit-identity** — re-closing the breaker on the unchanged
  instance must restore the original decision exactly (and hit the
  solver cache while doing it);
* **federation gain** — the routed optimum must dominate every
  single-server restriction of the same topology.

Work units run under :meth:`SweepRunner.map_seeded`, so the sweep is
bit-for-bit identical at any worker count; the CLI verifies this by
running twice and comparing :meth:`TopologySweepReport.comparable_dict`.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..core.odm import OffloadingDecisionManager, build_mckp
from ..core.task import OffloadableTask, TaskSet
from ..knapsack import SolverCache, canonical_instance_key, solve_dp
from ..parallel import SweepRunner
from ..scenarios.campaign import _audit_solvers, _values_close
from ..scenarios.generator import ScenarioSpec, generate_scenario
from ..scenarios.matrix import (
    CampaignMatrix,
    topology_matrix,
    topology_smoke_matrix,
)
from ..sim.rng import RandomStreams
from ..topology import estimate_topology_benefits, make_topology

__all__ = [
    "TopologySweepConfig",
    "TopologySweepReport",
    "run_topology_sweep",
]


@dataclass(frozen=True)
class TopologySweepConfig:
    """Knobs of one topology sweep (everything but the matrix)."""

    seed: int = 0
    replications: int = 1
    resolution: int = 2_000
    #: estimator samples per (server, task) pair
    num_samples: int = 64
    #: brute-force audit when ``Π |class items|`` is at most this
    brute_limit: int = 20_000
    max_anomalies: int = 32

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.brute_limit < 0:
            raise ValueError("brute_limit must be >= 0")


def _tasks_with_server_functions(
    tasks: TaskSet, per_task: Dict[str, object]
) -> TaskSet:
    """Each offloadable task rebuilt with the server's estimated
    benefit function — the single-server task set whose plain reduction
    must be bit-identical to the one-server topology instance."""
    rebuilt = TaskSet()
    for task in tasks:
        if isinstance(task, OffloadableTask) and task.task_id in per_task:
            rebuilt.add(replace(task, benefit=per_task[task.task_id]))
        else:
            rebuilt.add(task)
    return rebuilt


def _busiest_server(placements) -> Optional[str]:
    """The server carrying the most tasks (ties: first in route order)."""
    counts: Counter = Counter()
    for server_id, r in placements.values():
        if server_id is not None and r > 0:
            counts[server_id] += 1
    if not counts:
        return None
    best = max(counts.values())
    for server_id, r in placements.values():
        if server_id is not None and r > 0 and counts[server_id] == best:
            return server_id
    return None


def _sweep_unit(
    spec: ScenarioSpec,
    streams: RandomStreams,
    resolution: int,
    num_samples: int,
    brute_limit: int,
) -> Dict[str, object]:
    """Generate, estimate, route, audit one instance.  Module-level:
    picklable for the process pool."""
    anomalies: List[str] = []
    tasks = generate_scenario(spec, streams.get("scenario"))
    topology = make_topology(
        spec.num_servers, spec.server_spread, spec.link_quality
    )
    server_benefits, server_bounds = estimate_topology_benefits(
        tasks, topology, streams, num_samples=num_samples
    )

    manager = OffloadingDecisionManager(
        solver="dp", cache=SolverCache(), resolution=resolution
    )
    decision = manager.decide(tasks, server_benefits, server_bounds)

    # -- differential audit on the routed instance -----------------------
    instance = build_mckp(tasks, topology=server_benefits,
                          server_bounds=server_bounds)
    selection = solve_dp(instance, resolution=resolution)
    ref_checks, brute_checks = _audit_solvers(
        "routed", instance, selection, resolution, brute_limit, anomalies
    )
    if selection is None:
        anomalies.append("routed instance unexpectedly infeasible")
    elif selection.total_value != decision.expected_benefit:
        anomalies.append(
            "manager decision diverged from direct solve: "
            f"{decision.expected_benefit!r} != {selection.total_value!r}"
        )

    # -- single-server bit-identity --------------------------------------
    single_checks = 0
    if len(topology) == 1 and not server_bounds:
        only = topology.servers[0].server_id
        rebuilt = _tasks_with_server_functions(
            tasks, server_benefits[only]
        )
        plain = build_mckp(rebuilt)
        if canonical_instance_key(plain) != canonical_instance_key(
            instance
        ):
            anomalies.append(
                "single-server topology instance does not share the "
                "plain reduction's fingerprint"
            )
        else:
            plain_selection = solve_dp(plain, resolution=resolution)
            if (
                plain_selection is None
                or selection is None
                or plain_selection.choices != selection.choices
                or plain_selection.total_value != selection.total_value
                or plain_selection.total_weight != selection.total_weight
            ):
                anomalies.append(
                    "single-server solve is not bit-identical to the "
                    "plain reduction"
                )
        single_checks = 1

    # -- degradation: prune the busiest server ---------------------------
    prune_checks = 0
    recovery_checks = 0
    degraded_benefit = decision.expected_benefit
    victim = _busiest_server(decision.placements)
    if victim is not None:
        breaker = manager.health.breaker(victim)
        breaker.record_window(0, successes=0, failures=breaker.min_samples)
        degraded = manager.decide(tasks, server_benefits, server_bounds)
        degraded_benefit = degraded.expected_benefit
        if degraded.pruned_servers != (victim,):
            anomalies.append(
                f"expected {victim!r} pruned, got "
                f"{degraded.pruned_servers!r}"
            )
        if any(
            server_id == victim and r > 0
            for server_id, r in degraded.placements.values()
        ):
            anomalies.append(
                f"degraded decision still routes to dead {victim!r}"
            )
        if degraded.expected_benefit > decision.expected_benefit + 1e-9:
            anomalies.append(
                "killing a server increased the optimum: "
                f"{degraded.expected_benefit!r} > "
                f"{decision.expected_benefit!r}"
            )
        prune_checks = 1

        # recovery: open -> half_open (cooldown) -> closed, then the
        # unchanged instance must decide bit-for-bit identically
        breaker.record_window(1, successes=0, failures=0)
        breaker.record_window(
            2, successes=breaker.min_samples, failures=0
        )
        hits_before = manager.cache.hits
        recovered = manager.decide(tasks, server_benefits, server_bounds)
        if (
            recovered.placements != decision.placements
            or recovered.expected_benefit != decision.expected_benefit
            or recovered.total_demand_rate != decision.total_demand_rate
        ):
            anomalies.append(
                "recovery did not restore the original decision "
                "bit-for-bit"
            )
        if manager.cache.hits <= hits_before:
            anomalies.append(
                "recovered decision was not served from the solver cache"
            )
        recovery_checks = 1

    # -- federation gain: routed optimum dominates every restriction -----
    federation_checks = 0
    for server_id in topology.server_ids:
        restricted = build_mckp(
            tasks,
            topology={server_id: server_benefits[server_id]},
            server_bounds=server_bounds,
        )
        solo = solve_dp(restricted, resolution=resolution)
        if solo is not None and (
            solo.total_value > decision.expected_benefit + 1e-9
            and not _values_close(
                solo.total_value, decision.expected_benefit
            )
        ):
            anomalies.append(
                f"single-server {server_id!r} optimum "
                f"{solo.total_value!r} beats the federation "
                f"{decision.expected_benefit!r}"
            )
        federation_checks += 1

    offloaded = [
        server_id
        for server_id, r in decision.placements.values()
        if server_id is not None and r > 0
    ]
    num_tasks = len(tasks)
    return {
        "labels": list(spec.axis_labels),
        "benefit": decision.expected_benefit,
        "demand": decision.total_demand_rate,
        "offload_fraction": (
            len(offloaded) / num_tasks if num_tasks else 0.0
        ),
        "servers_used": len(set(offloaded)),
        "degraded_drop": (
            (decision.expected_benefit - degraded_benefit)
            / decision.expected_benefit
            if decision.expected_benefit > 0
            else 0.0
        ),
        "cache": manager.cache_stats(),
        "audit": {
            "reference_checks": ref_checks,
            "brute_checks": brute_checks,
            "single_server_checks": single_checks,
            "prune_checks": prune_checks,
            "recovery_checks": recovery_checks,
            "federation_checks": federation_checks,
            "anomalies": anomalies,
        },
    }


class _Marginal:
    """Streaming per-label means, folded in serial unit order."""

    __slots__ = ("instances", "sums")

    _FIELDS = (
        "benefit",
        "demand",
        "offload_fraction",
        "servers_used",
        "degraded_drop",
    )

    def __init__(self) -> None:
        self.instances = 0
        self.sums = {f: 0.0 for f in self._FIELDS}

    def fold(self, result: Dict[str, object]) -> None:
        self.instances += 1
        for f in self._FIELDS:
            self.sums[f] += float(result[f])

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"instances": self.instances}
        for f in self._FIELDS:
            out[f"mean_{f}"] = (
                self.sums[f] / self.instances if self.instances else None
            )
        return out


_CACHE_KEYS = (
    "hits", "misses", "near_hits", "hits_local", "hits_replicated",
    "replicated_in", "replicated_states_in", "entries", "delta_states",
)


@dataclass
class TopologySweepReport:
    """Everything one topology sweep measured, JSON-ready."""

    seed: int
    cells: int
    replications: int
    instances: int
    resolution: int
    num_samples: int
    workers: int
    mode: str
    axis_names: Tuple[str, ...]
    totals: Dict[str, object] = field(default_factory=dict)
    marginals: Dict[str, Dict[str, Dict[str, object]]] = field(
        default_factory=dict
    )
    audit: Dict[str, object] = field(default_factory=dict)
    stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    wall_seconds: float = 0.0
    serial_parallel_identical: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return self.audit.get("anomaly_count", 0) == 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "seed": self.seed,
            "cells": self.cells,
            "replications": self.replications,
            "instances": self.instances,
            "resolution": self.resolution,
            "num_samples": self.num_samples,
            "workers": self.workers,
            "mode": self.mode,
            "axis_names": list(self.axis_names),
            "totals": self.totals,
            "marginals": self.marginals,
            "audit": self.audit,
            "stats": self.stats,
            "ok": self.ok,
            "serial_parallel_identical": self.serial_parallel_identical,
            "wall_seconds": self.wall_seconds,
        }

    def comparable_dict(self) -> Dict[str, object]:
        """The sweep's results minus runtime circumstances — two runs
        of the same sweep must agree on this dict exactly at any worker
        count."""
        out = self.to_dict()
        for volatile in (
            "workers", "mode", "wall_seconds", "serial_parallel_identical",
        ):
            out.pop(volatile)
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def format(self) -> str:
        audit = self.audit
        lines = [
            f"topology sweep: {self.instances} instances "
            f"({self.cells} cells x {self.replications} replications), "
            f"seed={self.seed}, workers={self.workers} ({self.mode})",
            f"  benefit: {self.totals['mean_benefit']:.3f}"
            f"  offload: {self.totals['mean_offload_fraction']:.3f}"
            f"  servers used: {self.totals['mean_servers_used']:.2f}"
            f"  degraded drop: {self.totals['mean_degraded_drop']:.3f}",
            f"  audit: {audit['reference_checks']} reference + "
            f"{audit['brute_checks']} brute + "
            f"{audit['single_server_checks']} single-server + "
            f"{audit['prune_checks']}/{audit['recovery_checks']} "
            f"prune/recovery + {audit['federation_checks']} federation "
            f"checks, {audit['anomaly_count']} anomalies",
        ]
        for axis in self.axis_names:
            per = self.marginals[axis]
            parts = [
                f"{label}={m['mean_benefit']:.1f}"
                for label, m in per.items()
            ]
            lines.append(f"  {axis}: benefit " + " ".join(parts))
        return "\n".join(lines)


def _aggregate(
    results: List[Dict[str, object]],
    axis_names: Tuple[str, ...],
    max_anomalies: int,
) -> Tuple[Dict, Dict, Dict, Dict]:
    total = _Marginal()
    marginals: Dict[str, Dict[str, _Marginal]] = {
        name: {} for name in axis_names
    }
    anomalies: List[str] = []
    counters = {
        "reference_checks": 0,
        "brute_checks": 0,
        "single_server_checks": 0,
        "prune_checks": 0,
        "recovery_checks": 0,
        "federation_checks": 0,
    }
    anomaly_count = 0
    cache_totals = {key: 0 for key in _CACHE_KEYS}

    for result in results:
        total.fold(result)
        for axis, label in result["labels"]:
            if axis not in marginals:
                continue
            marginals[axis].setdefault(label, _Marginal()).fold(result)
        audit = result["audit"]
        for key in counters:
            counters[key] += audit[key]
        anomaly_count += len(audit["anomalies"])
        room = max_anomalies - len(anomalies)
        if room > 0:
            anomalies.extend(audit["anomalies"][:room])
        for key in _CACHE_KEYS:
            cache_totals[key] += result["cache"][key]

    audit_dict: Dict[str, object] = dict(counters)
    audit_dict["anomaly_count"] = anomaly_count
    audit_dict["anomalies"] = anomalies
    audit_dict["ok"] = anomaly_count == 0
    marginal_dict = {
        axis: {label: m.to_dict() for label, m in per.items()}
        for axis, per in marginals.items()
    }
    return total.to_dict(), marginal_dict, audit_dict, {
        "cache": cache_totals
    }


def run_topology_sweep(
    matrix: Optional[CampaignMatrix] = None,
    config: TopologySweepConfig = TopologySweepConfig(),
    workers: Optional[int] = None,
    smoke: bool = False,
) -> TopologySweepReport:
    """Expand the topology matrix and run the full sweep.

    ``smoke=True`` substitutes the 6-cell
    :func:`~repro.scenarios.matrix.topology_smoke_matrix` when no matrix
    is given; the default is the 24-cell
    :func:`~repro.scenarios.matrix.topology_matrix`.
    """
    if matrix is None:
        matrix = topology_smoke_matrix() if smoke else topology_matrix()
    cells = matrix.cells()
    units = [spec for spec in cells for _ in range(config.replications)]
    runner = SweepRunner(workers=workers)
    started = time.perf_counter()
    results = runner.map_seeded(
        _sweep_unit,
        units,
        config.seed,
        config.resolution,
        config.num_samples,
        config.brute_limit,
    )
    wall = time.perf_counter() - started
    totals, marginals, audit, stats = _aggregate(
        results, matrix.axis_names(), config.max_anomalies
    )
    return TopologySweepReport(
        seed=config.seed,
        cells=len(cells),
        replications=config.replications,
        instances=len(units),
        resolution=config.resolution,
        num_samples=config.num_samples,
        workers=runner.workers,
        mode=runner.last_mode,
        axis_names=matrix.axis_names(),
        totals=totals,
        marginals=marginals,
        audit=audit,
        stats=stats,
        wall_seconds=wall,
    )
