"""One audited-sweep harness: the campaign and the topology sweep.

Both audited sweeps — the scenario campaign
(:mod:`repro.scenarios.campaign`) and the federation sweep
(:mod:`repro.experiments.topology_sweep`) — run the same loop, which
lives here once.  :meth:`AuditedSweep.run` expands a
:class:`~repro.scenarios.matrix.CampaignMatrix` into ``cells ×
replications`` work units and maps the sweep's module-level unit
function over them with :meth:`SweepRunner.map_seeded`, so instance
``i`` draws from ``spawn_streams(seed, n)[i]`` — a pure function of
``(seed, i)`` — and the :class:`SweepReport` is **bit-for-bit identical
at every worker count** (the CLI verifies this by running twice).

A unit is called as ``unit(spec, streams, resolution, param,
brute_limit)``, where ``param`` is the sweep's one own config field,
and returns a dict with

* ``labels`` — the instance's ``(axis, label)`` pairs;
* one value per marginal field (``None`` when the instance has none,
  e.g. the benefit of an unschedulable set);
* ``audit`` — integer check counters plus an ``anomalies`` list.

The fold runs in serial (unit) order: per-axis marginals are means over
the instances carrying each label, skipping ``None``; audit counters are
summed; listed anomalies are capped at ``max_anomalies`` while
``anomaly_count`` counts them all.

The differential solver audit both units run (:func:`_audit_solvers`)
lives here too.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..knapsack import MCKPClass, MCKPInstance, MCKPItem, solve_brute_force
from ..knapsack.dp import _quantize_weight, solve_dp_reference, values_close
from ..parallel import SweepRunner
from .matrix import CampaignMatrix

__all__ = ["AuditedSweep", "SweepReport"]

#: Report keys that describe how a run executed, not what it found.
VOLATILE_KEYS = (
    "workers", "mode", "wall_seconds", "serial_parallel_identical",
)


def _quantized_copy(
    instance: MCKPInstance, resolution: int
) -> MCKPInstance:
    """The instance as the DP actually sees it: integer-unit weights.

    Weights become the (integer-valued) quantized unit counts and the
    capacity becomes ``resolution``, so an exact solver on the copy
    explores precisely the DP's feasible region — integer sums compare
    exactly, no float-boundary mismatches.
    """
    unit = instance.capacity / resolution
    classes = []
    for cls in instance.classes:
        items = tuple(
            MCKPItem(
                value=item.value,
                weight=float(_quantize_weight(item.weight, unit)),
                tag=item.tag,
            )
            for item in cls.items
        )
        classes.append(MCKPClass(class_id=cls.class_id, items=items))
    return MCKPInstance(classes=tuple(classes), capacity=float(resolution))


def _audit_solvers(
    name: str,
    instance: MCKPInstance,
    selection,
    resolution: int,
    brute_limit: int,
    anomalies: List[str],
) -> Tuple[int, int]:
    """Differential audit of one instance; returns (ref, brute) counts."""
    reference = solve_dp_reference(instance, resolution=resolution)
    if (selection is None) != (reference is None):
        anomalies.append(
            f"{name}: dp feasibility "
            f"{'infeasible' if selection is None else 'feasible'} "
            "disagrees with reference oracle"
        )
    elif selection is not None and not values_close(
        selection.total_value, reference.total_value
    ):
        anomalies.append(
            f"{name}: dp optimum {selection.total_value!r} != "
            f"reference {reference.total_value!r}"
        )
    brute = 0
    enumeration = 1
    for cls in instance.classes:
        enumeration *= len(cls.items)
        if enumeration > brute_limit:
            break
    if 0 < enumeration <= brute_limit:
        quantized = _quantized_copy(instance, resolution)
        exact = solve_brute_force(quantized)
        if (selection is None) != (exact is None):
            anomalies.append(
                f"{name}: dp feasibility disagrees with brute force on "
                "the quantized instance"
            )
        elif selection is not None and not values_close(
            selection.total_value, exact.total_value
        ):
            anomalies.append(
                f"{name}: dp optimum {selection.total_value!r} != "
                f"brute force {exact.total_value!r}"
            )
        brute = 1
    return 1, brute


def _means(
    results: List[Dict[str, object]], fields: Mapping[str, str]
) -> Dict[str, object]:
    """Each field's mean over ``results`` (serial order), skipping
    ``None``; ``None`` when no result has a value."""
    out: Dict[str, object] = {"instances": len(results)}
    for f, key in fields.items():
        total = 0.0
        count = 0
        for result in results:
            if result[f] is not None:
                total += float(result[f])
                count += 1
        out[key] = total / count if count else None
    return out


def sum_counts(records: Iterable[Mapping[str, int]]) -> Dict[str, int]:
    """Key-wise sums of integer counters, keys in first-seen order."""
    out: Dict[str, int] = {}
    for record in records:
        for key, value in record.items():
            out[key] = out.get(key, 0) + value
    return out


def _aggregate(
    results: List[Dict[str, object]],
    axis_names: Tuple[str, ...],
    fields: Mapping[str, str],
    max_anomalies: int,
) -> Tuple[Dict[str, object], Dict, Dict[str, object]]:
    """Fold unit results (serial order) into totals/marginals/audit."""
    groups: Dict[str, Dict[str, List]] = {name: {} for name in axis_names}
    for result in results:
        for axis, label in result["labels"]:
            if axis in groups:
                groups[axis].setdefault(label, []).append(result)
    marginals = {
        axis: {label: _means(group, fields) for label, group in per.items()}
        for axis, per in groups.items()
    }
    audit: Dict[str, object] = sum_counts(
        {k: v for k, v in result["audit"].items() if k != "anomalies"}
        for result in results
    )
    anomalies = [a for r in results for a in r["audit"]["anomalies"]]
    audit["anomaly_count"] = len(anomalies)
    audit["anomalies"] = anomalies[: max(max_anomalies, 0)]
    audit["ok"] = not anomalies
    return _means(results, fields), marginals, audit


@dataclass(frozen=True)
class AuditedSweep:
    """One kind of audited sweep: its unit and how its report reads.

    ``param`` names the one config field the unit takes besides the
    shared ``seed``/``replications``/``resolution``/``brute_limit``/
    ``max_anomalies`` (the report records it after ``resolution``).
    ``fields`` maps each unit-result field to its marginal key.
    ``headline(report)`` gives the summary lines after the header, and
    ``axis_metric = (word, marginal key, format spec)`` the per-axis
    lines.  ``extras(results)`` returns keys to add to ``totals`` and
    extra top-level report sections.
    """

    name: str
    unit: Callable[..., Dict[str, object]]
    param: str
    fields: Mapping[str, str]
    headline: Callable[["SweepReport"], List[str]]
    axis_metric: Tuple[str, str, str]
    extras: Callable[[List[Dict[str, object]]], Tuple[Dict, Dict]]

    def run(
        self,
        matrix: CampaignMatrix,
        config,
        workers: Optional[int] = None,
    ) -> "SweepReport":
        """Expand ``matrix`` × ``config.replications``, run, fold."""
        cells = matrix.cells()
        units = [spec for spec in cells for _ in range(config.replications)]
        param = getattr(config, self.param)
        runner = SweepRunner(workers=workers)
        started = time.perf_counter()
        results = runner.map_seeded(
            self.unit,
            units,
            config.seed,
            config.resolution,
            param,
            config.brute_limit,
        )
        wall = time.perf_counter() - started
        totals, marginals, audit = _aggregate(
            results, matrix.axis_names(), self.fields, config.max_anomalies
        )
        extra_totals, sections = self.extras(results)
        totals.update(extra_totals)
        return SweepReport(
            sweep=self,
            seed=config.seed,
            cells=len(cells),
            replications=config.replications,
            instances=len(units),
            resolution=config.resolution,
            params={self.param: param},
            workers=runner.workers,
            mode=runner.last_mode,
            axis_names=matrix.axis_names(),
            totals=totals,
            marginals=marginals,
            audit=audit,
            sections=sections,
            wall_seconds=wall,
        )


@dataclass
class SweepReport:
    """Everything one audited sweep measured, JSON-ready."""

    sweep: AuditedSweep = field(repr=False, compare=False)
    seed: int
    cells: int
    replications: int
    instances: int
    resolution: int
    #: the sweep's own config field, e.g. ``{"energy_weight": 5.0}``
    params: Dict[str, object]
    workers: int
    mode: str
    axis_names: Tuple[str, ...]
    totals: Dict[str, object]
    marginals: Dict[str, Dict[str, Dict[str, object]]]
    audit: Dict[str, object]
    #: extra top-level sections, e.g. the topology sweep's ``stats``
    sections: Dict[str, object]
    wall_seconds: float
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
            **self.params,
            "workers": self.workers,
            "mode": self.mode,
            "axis_names": list(self.axis_names),
            "totals": self.totals,
            "marginals": self.marginals,
            "audit": self.audit,
            **self.sections,
            "ok": self.ok,
            "serial_parallel_identical": self.serial_parallel_identical,
            "wall_seconds": self.wall_seconds,
        }

    def comparable_dict(self) -> Dict[str, object]:
        """The run's results minus runtime circumstances.

        Two runs of the same sweep must agree on this dict exactly —
        regardless of worker count or wall-clock — which is what the
        CLI's serial-vs-parallel verification compares.
        """
        out = self.to_dict()
        for volatile in VOLATILE_KEYS:
            out.pop(volatile)
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def format(self) -> str:
        word, key, spec = self.sweep.axis_metric
        lines = [
            f"{self.sweep.name}: {self.instances} instances "
            f"({self.cells} cells x {self.replications} replications), "
            f"seed={self.seed}, workers={self.workers} ({self.mode})",
            *self.sweep.headline(self),
        ]
        for axis in self.axis_names:
            parts = " ".join(
                f"{label}={m[key]:{spec}}"
                for label, m in self.marginals[axis].items()
            )
            lines.append(f"  {axis}: {word} {parts}")
        return "\n".join(lines)
