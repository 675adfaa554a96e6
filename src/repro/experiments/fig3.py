"""Experiment E3 — the simulation study of Figure 3 (paper §6.2).

30 random tasks per set (``C_{i,1}, C_i ~ U(0,20ms]``, ``C_{i,2}=C_i``,
``T_i = D_i ~ U{600..700ms}``, success probabilities 10%..100% at
increasing response times in [100, 200] ms).  The estimator's accuracy
ratio ``x`` makes the ODM decide on the *believed* benefits
``G((1+x)·r)`` while the score is the *true* ``Σ G_i(R_i)`` — the
expected number of timely high-performance results.

Both MCKP solvers (exact DP and HEU-OE) are swept over
``x ∈ {−40%, …, +40%}``; all values are normalized to the DP score at
perfect estimation (x = 0), matching the paper's presentation.

Shapes to check: the peak is at x = 0, values degrade in both
directions, and DP dominates HEU-OE (which stays close).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.odm import (
    OffloadingDecisionManager,
    build_mckp,
    one_node_topology,
)
from ..estimator.errors import evaluate_true_benefit, perturb_task_set
from ..parallel import SweepRunner
from ..workloads.generator import paper_simulation_task_set

__all__ = [
    "Fig3Result",
    "run_fig3",
    "run_fig3_des",
    "format_fig3",
    "DEFAULT_ACCURACY_RATIOS",
]

#: The paper's x-axis: −40 % … +40 % in 10 % steps.
DEFAULT_ACCURACY_RATIOS: Sequence[float] = tuple(
    round(x, 2) for x in np.arange(-0.4, 0.41, 0.1)
)


@dataclass
class Fig3Result:
    """Normalized total benefit per solver per accuracy ratio.

    ``normalized[solver][k]`` corresponds to ``ratios[k]``; the
    normalizer is the mean DP benefit at x = 0.
    """

    ratios: List[float]
    normalized: Dict[str, List[float]] = field(default_factory=dict)
    raw: Dict[str, List[float]] = field(default_factory=dict)
    num_task_sets: int = 0

    def series(self, solver: str) -> List[float]:
        return self.normalized[solver]

    def peak_ratio(self, solver: str) -> float:
        """The accuracy ratio at which the solver scored best."""
        values = self.normalized[solver]
        return self.ratios[int(np.argmax(values))]


def _fig3_unit(
    set_index: int,
    accuracy_ratios: Tuple[float, ...],
    solvers: Tuple[str, ...],
    num_tasks: int,
    seed: int,
    resolution: Optional[int],
) -> Dict[str, List[float]]:
    """One task set's true benefits per solver per accuracy ratio.

    The RNG is a pure function of ``(seed, set_index)`` so the sweep is
    identical at any worker count.  All solvers decide over a *shared*
    MCKP reduction of each believed set — ``build_mckp`` is off the
    per-solver path.
    """
    rng = np.random.default_rng(seed * 7919 + set_index)
    truth = paper_simulation_task_set(rng, num_tasks=num_tasks)
    managers = {
        name: OffloadingDecisionManager(
            solver=name,
            **({"resolution": resolution}
               if resolution is not None and name == "dp" else {}),
        )
        for name in solvers
    }
    benefits: Dict[str, List[float]] = {
        name: [0.0] * len(accuracy_ratios) for name in solvers
    }
    for k, ratio in enumerate(accuracy_ratios):
        believed = perturb_task_set(truth, ratio)
        believed.validate()
        instance = build_mckp(
            believed, topology=one_node_topology(believed)
        )
        for name, manager in managers.items():
            decision = manager.decide_from_instance(believed, instance)
            benefits[name][k] = evaluate_true_benefit(
                truth, dict(decision.response_times)
            )
    return benefits


def run_fig3(
    accuracy_ratios: Sequence[float] = DEFAULT_ACCURACY_RATIOS,
    solvers: Sequence[str] = ("dp", "heu_oe"),
    num_task_sets: int = 20,
    num_tasks: int = 30,
    seed: int = 0,
    workers: Optional[int] = None,
    resolution: Optional[int] = None,
) -> Fig3Result:
    """Run the Figure 3 sweep.

    Averages true benefits over ``num_task_sets`` independently generated
    task sets before normalizing, which is what makes the curves smooth
    (a single set gives a step-shaped curve).  ``workers`` parallelizes
    over task sets (one per work unit) with bit-for-bit identical
    results; ``resolution`` overrides the DP capacity quantization.
    """
    if "dp" not in solvers:
        raise ValueError("the 'dp' solver is required for normalization")

    runner = SweepRunner(workers=workers)
    per_set = runner.map(
        _fig3_unit,
        range(num_task_sets),
        tuple(accuracy_ratios),
        tuple(solvers),
        num_tasks,
        seed,
        resolution,
    )
    sums: Dict[str, List[float]] = {
        name: [0.0] * len(accuracy_ratios) for name in solvers
    }
    # Ascending set order keeps float accumulation in serial order.
    for benefits in per_set:
        for name in solvers:
            for k in range(len(accuracy_ratios)):
                sums[name][k] += benefits[name][k]

    # normalizer: DP at the ratio closest to 0
    zero_index = int(np.argmin([abs(r) for r in accuracy_ratios]))
    normalizer = sums["dp"][zero_index]
    if normalizer <= 0:
        raise RuntimeError("degenerate sweep: DP earned no benefit at x=0")

    result = Fig3Result(
        ratios=list(accuracy_ratios), num_task_sets=num_task_sets
    )
    for name in solvers:
        result.raw[name] = [s / num_task_sets for s in sums[name]]
        result.normalized[name] = [s / normalizer for s in sums[name]]
    return result


def _fig3_des_unit(
    set_index: int,
    accuracy_ratios: Tuple[float, ...],
    num_tasks: int,
    horizon: float,
    seed: int,
) -> List[float]:
    """One task set's measured timely-return counts per accuracy ratio."""
    from ..sched.offload_scheduler import OffloadingScheduler
    from ..sched.transport import StaircaseTransport
    from ..sim.engine import Simulator

    manager = OffloadingDecisionManager("dp")
    counts = [0.0] * len(accuracy_ratios)
    rng = np.random.default_rng(seed * 7919 + set_index)
    truth = paper_simulation_task_set(rng, num_tasks=num_tasks)
    for k, ratio in enumerate(accuracy_ratios):
        believed = perturb_task_set(truth, ratio)
        decision = manager.decide(believed)
        sim = Simulator()
        transport = StaircaseTransport(
            sim,
            rng=np.random.default_rng(seed * 104729 + set_index),
        )
        scheduler = OffloadingScheduler(
            sim, truth, response_times=decision.response_times,
            transport=transport,
        )
        trace = scheduler.run(horizon)
        if not trace.all_deadlines_met:
            raise AssertionError(
                "deadline miss during the DES-validated sweep — the "
                "guarantee must hold at every accuracy ratio"
            )
        counts[k] = sum(
            1 for rec in trace.jobs.values() if rec.result_returned
        )
    return counts


def run_fig3_des(
    accuracy_ratios: Sequence[float] = (-0.4, -0.2, 0.0, 0.2, 0.4),
    num_task_sets: int = 5,
    num_tasks: int = 30,
    horizon: float = 60.0,
    seed: int = 0,
    workers: Optional[int] = None,
) -> Fig3Result:
    """DES-validated Figure 3: *measured* timely returns, not analytic.

    For each accuracy ratio, the DP decision (made on believed benefits)
    runs on a server whose latency distribution is exactly the true
    probability staircase
    (:class:`repro.sched.transport.StaircaseTransport`); the score is
    the measured count of offloaded jobs whose results returned within
    their budgets.  Normalized to the x = 0 measurement.

    This is slower than :func:`run_fig3` (it simulates every
    configuration) and noisier (binomial sampling), but it proves the
    analytic objective corresponds to something physically measured.
    """
    runner = SweepRunner(workers=workers)
    per_set = runner.map(
        _fig3_des_unit,
        range(num_task_sets),
        tuple(accuracy_ratios),
        num_tasks,
        horizon,
        seed,
    )
    sums = [0.0] * len(accuracy_ratios)
    for counts in per_set:
        for k in range(len(accuracy_ratios)):
            sums[k] += counts[k]

    zero_index = int(np.argmin([abs(r) for r in accuracy_ratios]))
    normalizer = sums[zero_index]
    if normalizer <= 0:
        raise RuntimeError("degenerate DES sweep: no timely returns at x=0")
    result = Fig3Result(
        ratios=list(accuracy_ratios), num_task_sets=num_task_sets
    )
    result.raw["dp_des"] = [s / num_task_sets for s in sums]
    result.normalized["dp_des"] = [s / normalizer for s in sums]
    return result


def format_fig3(result: Fig3Result) -> str:
    solvers = list(result.normalized)
    lines = [
        f"Figure 3: normalized total benefits vs estimation accuracy "
        f"({result.num_task_sets} task sets)",
        "ratio    " + "  ".join(f"{s:>10}" for s in solvers),
    ]
    for k, ratio in enumerate(result.ratios):
        cells = "  ".join(
            f"{result.normalized[s][k]:10.4f}" for s in solvers
        )
        lines.append(f"{ratio:+5.0%}   {cells}")
    return "\n".join(lines)
