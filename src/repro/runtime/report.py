"""Run reports: what one end-to-end simulation produced.

A :class:`SystemReport` condenses a schedule trace into the quantities
the paper's evaluation discusses — realized benefit, compensation rates,
deadline conformance — plus the decision that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.odm import OffloadingDecision
from ..sim.trace import Trace

__all__ = ["SystemReport"]


@dataclass
class SystemReport:
    """Summary of one offloading-system simulation run."""

    decision: OffloadingDecision
    trace: Trace
    horizon: float

    # ------------------------------------------------------------------
    # headline numbers
    # ------------------------------------------------------------------
    @property
    def realized_benefit(self) -> float:
        """Σ realized per-job (weighted) benefit over the run."""
        return self.trace.total_benefit()

    @property
    def deadline_misses(self) -> int:
        return self.trace.deadline_miss_count

    @property
    def all_deadlines_met(self) -> bool:
        return self.trace.all_deadlines_met

    @property
    def jobs_completed(self) -> int:
        return sum(
            1 for rec in self.trace.jobs.values() if rec.finish is not None
        )

    @property
    def offloaded_jobs(self) -> int:
        return self.trace.offload_counts()[0]

    @property
    def returned_jobs(self) -> int:
        """Offloaded jobs whose server result arrived within ``R_i``."""
        return self.trace.offload_counts()[1]

    @property
    def compensated_jobs(self) -> int:
        return self.trace.offload_counts()[2]

    @property
    def return_rate(self) -> float:
        """Fraction of offloaded jobs served in time by the server."""
        offloaded, returned, _ = self.trace.offload_counts()
        return returned / offloaded if offloaded else 0.0

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"horizon: {self.horizon:.3f} s",
            f"decision ({self.decision.solver}): "
            f"offloaded={list(self.decision.offloaded_task_ids)} "
            f"local={list(self.decision.local_task_ids)}",
            f"expected benefit (per job mix): "
            f"{self.decision.expected_benefit:.4f}",
            f"demand rate: {self.decision.total_demand_rate:.4f}",
            f"jobs completed: {self.jobs_completed}"
            f" (offloaded {self.offloaded_jobs},"
            f" returned {self.returned_jobs},"
            f" compensated {self.compensated_jobs})",
            f"server return rate: {self.return_rate:.1%}",
            f"realized benefit: {self.realized_benefit:.4f}",
            f"deadline misses: {self.deadline_misses}",
        ]
        return "\n".join(lines)
