"""Experiment drivers: one per paper artifact plus the ablations.

* :mod:`repro.experiments.table1` — E1, the benefit-function table.
* :mod:`repro.experiments.fig2` — E2, the case-study bar series.
* :mod:`repro.experiments.fig3` — E3, the estimation-accuracy sweep.
* :mod:`repro.experiments.ablations` — A1 split-vs-naive, A2 solvers,
  A3 test pessimism.
"""

from .ablations import (
    PessimismResult,
    SolverAblationResult,
    SplitAblationResult,
    greedy_assignments,
    random_mckp,
    run_pessimism_ablation,
    run_solver_ablation,
    run_split_ablation,
)
from .fig2 import (
    WEIGHT_PERMUTATIONS,
    Fig2Point,
    Fig2Result,
    format_fig2,
    run_fig2,
)
from .baselines_comparison import (
    BaselineComparison,
    StrategyOutcome,
    format_comparison,
    run_baseline_comparison,
)
from .fig3 import (
    DEFAULT_ACCURACY_RATIOS,
    Fig3Result,
    format_fig3,
    run_fig3,
    run_fig3_des,
)
from .sensitivity import (
    BudgetPoint,
    PercentilePoint,
    PricePoint,
    budget_sweep,
    percentile_tradeoff,
    price_curve,
)
from .split_policies import SplitPolicyResult, run_split_policy_ablation
from .table1 import Table1Result, format_table1, regenerate_table1
from .topology_sweep import (
    TopologySweepConfig,
    run_topology_sweep,
)

__all__ = [
    "regenerate_table1",
    "Table1Result",
    "format_table1",
    "run_fig2",
    "Fig2Result",
    "Fig2Point",
    "format_fig2",
    "WEIGHT_PERMUTATIONS",
    "run_fig3",
    "run_fig3_des",
    "Fig3Result",
    "format_fig3",
    "DEFAULT_ACCURACY_RATIOS",
    "run_split_ablation",
    "SplitAblationResult",
    "run_solver_ablation",
    "SolverAblationResult",
    "random_mckp",
    "run_pessimism_ablation",
    "PessimismResult",
    "greedy_assignments",
    "run_split_policy_ablation",
    "SplitPolicyResult",
    "run_baseline_comparison",
    "BaselineComparison",
    "StrategyOutcome",
    "format_comparison",
    "price_curve",
    "PricePoint",
    "budget_sweep",
    "BudgetPoint",
    "percentile_tradeoff",
    "PercentilePoint",
    "run_topology_sweep",
    "TopologySweepConfig",
]
