"""The scenario campaign: an audited sweep over the scenario matrix.

:data:`CAMPAIGN` hands the campaign's unit function to the shared
harness (:class:`~repro.scenarios.sweep.AuditedSweep`), which expands
the :class:`~repro.scenarios.matrix.CampaignMatrix`, runs every
instance bit-for-bit identically at any worker count, and folds the
results into per-axis marginals and one audit ledger.

Per instance the unit measures and audits:

* *schedulability* — does any configuration pass Theorem 3 (the plain
  MCKP has a feasible selection)?  Overload cells (``util_cap > 1``)
  make this a real question: only offloading can rescue them.
* *benefit* and the decision's *energy rate* under the plain
  (benefit-only) objective;
* the same under the energy-blended objective
  (:class:`~repro.scenarios.energy.EnergyObjective` with the campaign's
  ``energy_weight``), plus the admission-equivalence invariant: the
  blend may trade benefit for energy but must never change whether the
  set is admissible (objectives change MCKP *values* only, never
  weights);
* *burst miss rate* for bursty cells
  (:func:`~repro.scenarios.bursts.simulate_burst_admission`);
* a differential audit: ``solve_dp`` vs the ``solve_dp_reference``
  oracle on both instances (every instance), and — when the class
  enumeration is small enough — an exact brute-force check on a copy
  whose weights are pre-quantized to the DP grid, so both solvers see
  the identical feasible region.

The marginals give, for every axis point, the mean schedulability /
benefit / energy / miss-rate over the instances carrying that label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.odm import build_mckp
from ..core.task import TaskSet
from ..knapsack import MCKPInstance
from ..knapsack.dp import solve_dp
from ..sim.rng import RandomStreams
from .bursts import simulate_burst_admission
from .energy import EnergyObjective, decision_energy_rate
from .generator import ScenarioSpec, generate_scenario
from .matrix import CampaignMatrix, default_matrix, smoke_matrix
from .sweep import AuditedSweep, SweepReport, _audit_solvers

__all__ = [
    "CampaignConfig",
    "run_campaign",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one campaign run (everything but the matrix)."""

    seed: int = 0
    replications: int = 1
    resolution: int = 2_000
    #: energy term of the blended objective (benefit weight stays 1.0)
    energy_weight: float = 5.0
    #: brute-force audit an instance when ``Π |class items|`` is at most
    #: this (the full enumeration the oracle must walk)
    brute_limit: int = 20_000
    max_anomalies: int = 32

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.energy_weight < 0:
            raise ValueError("energy_weight must be >= 0")
        if self.brute_limit < 0:
            raise ValueError("brute_limit must be >= 0")


def _selection_metrics(
    tasks: TaskSet, selection, instance: MCKPInstance
) -> Tuple[Dict[str, float], float, float, float]:
    """Read a selection back: response times, benefit, energy, offload."""
    response_times = {
        cls.class_id: float(selection.item_for(cls.class_id).tag)
        for cls in instance.classes
    }
    benefit = 0.0
    offloaded = 0
    for task in tasks:
        r = response_times[task.task_id]
        if hasattr(task, "benefit"):
            benefit += task.benefit.value(r) * task.weight
        if r > 0:
            offloaded += 1
    energy_rate = decision_energy_rate(tasks, response_times)
    offload_fraction = offloaded / len(tasks) if len(tasks) else 0.0
    return response_times, benefit, energy_rate, offload_fraction


def _campaign_unit(
    spec: ScenarioSpec,
    streams: RandomStreams,
    resolution: int,
    energy_weight: float,
    brute_limit: int,
) -> Dict[str, object]:
    """Generate, solve, audit one instance.  Module-level: picklable."""
    tasks = generate_scenario(spec, streams.get("scenario"))
    anomalies: List[str] = []

    plain = build_mckp(tasks)
    selection = solve_dp(plain, resolution=resolution)
    ref_checks, brute_checks = _audit_solvers(
        "plain", plain, selection, resolution, brute_limit, anomalies
    )

    objective = EnergyObjective(
        benefit_weight=1.0, energy_weight=energy_weight
    )
    blended = build_mckp(tasks, objective=objective)
    blend_selection = solve_dp(blended, resolution=resolution)
    r, b = _audit_solvers(
        "energy", blended, blend_selection, resolution, brute_limit,
        anomalies,
    )
    ref_checks += r
    brute_checks += b

    if (selection is None) != (blend_selection is None):
        anomalies.append(
            "energy objective changed admissibility: plain "
            f"{'infeasible' if selection is None else 'feasible'}, "
            f"blend {'infeasible' if blend_selection is None else 'feasible'}"
        )

    result: Dict[str, object] = {
        "labels": list(spec.axis_labels),
        "schedulable": selection is not None,
        "benefit": None,
        "energy_rate": None,
        "blend_benefit": None,
        "blend_energy_rate": None,
        "offload_fraction": None,
        "miss_rate": None,
        "burst_arrivals": 0,
        "audit": {
            "reference_checks": ref_checks,
            "brute_checks": brute_checks,
            "anomalies": anomalies,
        },
    }
    if selection is not None:
        _, benefit, energy_rate, offload_fraction = _selection_metrics(
            tasks, selection, plain
        )
        result["benefit"] = benefit
        result["energy_rate"] = energy_rate
        result["offload_fraction"] = offload_fraction
    if blend_selection is not None:
        _, blend_benefit, blend_energy, _ = _selection_metrics(
            tasks, blend_selection, blended
        )
        result["blend_benefit"] = blend_benefit
        result["blend_energy_rate"] = blend_energy

    outcome = simulate_burst_admission(
        tasks, spec, streams.get("bursts")
    )
    if outcome is not None:
        result["miss_rate"] = outcome.miss_rate
        result["burst_arrivals"] = outcome.arrivals
    return result


def _headline(report: SweepReport) -> List[str]:
    totals, audit = report.totals, report.audit
    return [
        f"  schedulable: {totals['schedulable_fraction']:.3f}"
        f"  offload: {_fmt(totals['mean_offload_fraction'])}"
        f"  benefit: {_fmt(totals['mean_benefit'])}",
        f"  energy rate: plain {_fmt(totals['mean_energy_rate'])}"
        f" W -> blend {_fmt(totals['mean_blend_energy_rate'])} W"
        f"  (saving {_fmt(totals['energy_saving_fraction'])})",
        f"  burst miss rate: {_fmt(totals['mean_miss_rate'])}"
        f" over {totals['burst_arrivals']} arrivals",
        f"  audit: {audit['reference_checks']} reference + "
        f"{audit['brute_checks']} brute-force checks, "
        f"{audit['anomaly_count']} anomalies",
    ]


def _fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def _extras(results: List[Dict[str, object]]) -> Tuple[Dict, Dict]:
    """Burst arrivals, and the blend's energy saving over the instances
    where both objectives found a decision."""
    energy_sum = 0.0
    blend_sum = 0.0
    for result in results:
        if (
            result["energy_rate"] is not None
            and result["blend_energy_rate"] is not None
        ):
            energy_sum += result["energy_rate"]
            blend_sum += result["blend_energy_rate"]
    return {
        "burst_arrivals": sum(r["burst_arrivals"] for r in results),
        "energy_saving_fraction": (
            (energy_sum - blend_sum) / energy_sum if energy_sum > 0 else None
        ),
    }, {}


CAMPAIGN = AuditedSweep(
    name="campaign",
    unit=_campaign_unit,
    param="energy_weight",
    fields={
        "schedulable": "schedulable_fraction",
        **{
            f: f"mean_{f}"
            for f in (
                "benefit",
                "energy_rate",
                "blend_benefit",
                "blend_energy_rate",
                "offload_fraction",
                "miss_rate",
            )
        },
    },
    headline=_headline,
    axis_metric=("sched", "schedulable_fraction", ".2f"),
    extras=_extras,
)


def run_campaign(
    matrix: Optional[CampaignMatrix] = None,
    config: CampaignConfig = CampaignConfig(),
    workers: Optional[int] = None,
    smoke: bool = False,
) -> SweepReport:
    """Expand ``matrix`` and run the full campaign.

    ``smoke=True`` substitutes the 16-cell
    :func:`~repro.scenarios.matrix.smoke_matrix` when no matrix is
    given (the CI job's mode); the default is the ≥1000-instance
    :func:`~repro.scenarios.matrix.default_matrix`.
    """
    if matrix is None:
        matrix = smoke_matrix() if smoke else default_matrix()
    return CAMPAIGN.run(matrix, config, workers)
