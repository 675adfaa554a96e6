"""End-to-end runtime: the Figure 1 software architecture as a facade,
plus the adaptive re-estimation loop and the health/circuit-breaker
resilience loop extensions."""

from .adaptive import AdaptiveOffloadingSystem, AdaptiveReport, WindowRecord
from .admission import AdmissionController, AdmissionVerdict
from .energy import EnergyReport, PowerModel, compare_energy, energy_report
from .health import (
    CircuitBreaker,
    ResilienceReport,
    ResilienceWindow,
    ResilientOffloadingSystem,
    local_only_tasks,
)
from .report import SystemReport
from .system import OffloadingSystem

__all__ = [
    "OffloadingSystem",
    "SystemReport",
    "AdaptiveOffloadingSystem",
    "AdaptiveReport",
    "WindowRecord",
    "AdmissionController",
    "AdmissionVerdict",
    "PowerModel",
    "EnergyReport",
    "energy_report",
    "compare_energy",
    "CircuitBreaker",
    "ResilienceWindow",
    "ResilienceReport",
    "ResilientOffloadingSystem",
    "local_only_tasks",
]
