"""End-to-end runtime: the Figure 1 software architecture as a facade,
plus the windowed re-decision loop with its two policies (adaptive
re-estimation and health/circuit-breaker resilience)."""

from .adaptive import AdaptiveOffloadingSystem
from .admission import AdmissionController, AdmissionVerdict
from .energy import EnergyReport, PowerModel, compare_energy, energy_report
from .health import (
    CircuitBreaker,
    ResilientOffloadingSystem,
    local_only_tasks,
)
from .report import SystemReport
from .system import (
    OffloadingSystem,
    WindowedOffloadingSystem,
    WindowedReport,
    WindowRecord,
)

__all__ = [
    "OffloadingSystem",
    "SystemReport",
    "WindowedOffloadingSystem",
    "WindowedReport",
    "WindowRecord",
    "AdaptiveOffloadingSystem",
    "AdmissionController",
    "AdmissionVerdict",
    "PowerModel",
    "EnergyReport",
    "energy_report",
    "compare_energy",
    "CircuitBreaker",
    "ResilientOffloadingSystem",
    "local_only_tasks",
]
