"""Scenario campaigns: parameterized workloads, energy, overload.

The workload backbone of the reproduction's evaluation at scale.  A
campaign is a declarative matrix of named axes
(:mod:`~repro.scenarios.axes`) over a base
:class:`~repro.scenarios.generator.ScenarioSpec`; expansion
(:mod:`~repro.scenarios.matrix`), per-instance generation
(:mod:`~repro.scenarios.generator`), energy pricing and energy-aware
objectives (:mod:`~repro.scenarios.energy`), burst-admission overload
(:mod:`~repro.scenarios.bursts`), the campaign's unit
(:mod:`~repro.scenarios.campaign`) and the parallel, self-auditing
sweep harness it shares with the topology sweep
(:mod:`~repro.scenarios.sweep`) are each one module.

Entry points: ``python -m repro campaign`` from the CLI, or::

    from repro.scenarios import CampaignConfig, run_campaign, smoke_matrix
    report = run_campaign(smoke_matrix(), CampaignConfig(seed=7))
    assert report.ok
"""

from .axes import (
    AxisPoint,
    ScenarioAxis,
    benefit_shape_axis,
    burst_axis,
    deadline_axis,
    energy_axis,
    heterogeneity_axis,
    link_quality_axis,
    overhead_axis,
    period_axis,
    server_count_axis,
    util_cap_axis,
    util_dist_axis,
)
from .bursts import (
    BurstOutcome,
    admissible,
    min_demand_rate,
    scenario_pool,
    simulate_burst_admission,
)
from .campaign import CampaignConfig, run_campaign
from .energy import (
    ENERGY_PROFILES,
    EnergyModel,
    EnergyObjective,
    attach_energy,
    decision_energy_rate,
)
from .generator import ScenarioSpec, generate_scenario, partition_utilization
from .matrix import (
    CampaignMatrix,
    default_matrix,
    smoke_matrix,
    topology_matrix,
    topology_smoke_matrix,
)
from .sweep import AuditedSweep, SweepReport

__all__ = [
    "AuditedSweep",
    "AxisPoint",
    "BurstOutcome",
    "CampaignConfig",
    "CampaignMatrix",
    "ENERGY_PROFILES",
    "EnergyModel",
    "EnergyObjective",
    "ScenarioAxis",
    "ScenarioSpec",
    "SweepReport",
    "admissible",
    "attach_energy",
    "benefit_shape_axis",
    "burst_axis",
    "deadline_axis",
    "decision_energy_rate",
    "default_matrix",
    "energy_axis",
    "generate_scenario",
    "heterogeneity_axis",
    "link_quality_axis",
    "min_demand_rate",
    "overhead_axis",
    "partition_utilization",
    "period_axis",
    "run_campaign",
    "scenario_pool",
    "server_count_axis",
    "simulate_burst_admission",
    "smoke_matrix",
    "topology_matrix",
    "topology_smoke_matrix",
    "util_cap_axis",
    "util_dist_axis",
]
