"""The chaos harness: prove the deadline guarantee under injected faults.

A chaos run drives a task set through the windowed resilience loop of
:class:`~repro.runtime.health.ResilientOffloadingSystem` while a
:class:`~repro.faults.injectors.FaultSchedule` abuses the offload path —
crashes, partitions, latency storms, flaky delivery — and then checks
the properties the robustness story rests on:

1. **Hard-deadline invariant** — *no* job ever misses its deadline,
   whatever the schedule did (compensation always lands);
2. **Degradation** — when the server goes dark the circuit breaker
   trips and the loop demotes to an explicit local-only decision;
3. **Recovery** — once the faults clear, half-open probing re-admits
   offloading and realized benefit returns to its pre-fault level.

Profiles give reproducible named schedules; ``random`` draws a seeded
:meth:`FaultSchedule.random`.  Everything is a pure function of the
seed, so a failing chaos run is a replayable bug report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.task import TaskSet
from ..runtime.health import CircuitBreaker, ResilientOffloadingSystem
from ..runtime.system import WindowedReport
from ..sim.rng import derive_seed
from .injectors import FaultEvent, FaultSchedule

__all__ = [
    "FAULT_PROFILES",
    "build_profile_schedule",
    "ChaosReport",
    "run_chaos",
    "format_chaos",
]

#: Named, reproducible fault scenarios.
FAULT_PROFILES = ("outage", "partition", "storm", "flaky", "random")


def build_profile_schedule(
    profile: str, horizon: float, seed: int = 0
) -> FaultSchedule:
    """The fault timeline of a named profile over ``[0, horizon)``.

    Deterministic profiles place their fault in the second quarter of
    the run — after at least one clean window (the pre-fault benefit
    baseline) and with enough clean tail for recovery to show.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    start = 0.25 * horizon
    duration = 0.25 * horizon
    if profile == "outage":
        return FaultSchedule.outage(start, duration)
    if profile == "partition":
        return FaultSchedule.partition(start, duration)
    if profile == "storm":
        # extra latency far beyond any R_i: offloads fail while it lasts
        return FaultSchedule.latency_storm(
            start, duration, extra_latency=5.0
        )
    if profile == "flaky":
        return FaultSchedule(
            [
                FaultEvent("drop", start, duration, magnitude=0.9),
                FaultEvent(
                    "delay", start, duration, magnitude=0.8, extra=5.0
                ),
                FaultEvent(
                    "duplicate", 0.0, horizon, magnitude=0.3
                ),
            ]
        )
    if profile == "random":
        rng = np.random.default_rng(derive_seed(seed, "chaos-schedule"))
        return FaultSchedule.random(rng, horizon=0.75 * horizon)
    raise ValueError(
        f"unknown fault profile {profile!r}; known: {FAULT_PROFILES}"
    )


@dataclass
class ChaosReport:
    """Everything one chaos run produced, plus the derived verdicts."""

    profile: str
    seed: int
    scenario: str
    window: float
    num_windows: int
    schedule: FaultSchedule
    resilience: WindowedReport

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    @property
    def deadline_misses(self) -> int:
        return self.resilience.deadline_misses

    @property
    def hard_deadline_invariant(self) -> bool:
        return self.resilience.hard_deadline_invariant

    @property
    def trips(self) -> int:
        return self.resilience.trips

    @property
    def recoveries(self) -> int:
        return self.resilience.recoveries

    @property
    def degraded_windows(self) -> int:
        return self.resilience.degraded_windows

    @property
    def recovery_latency_windows(self) -> Optional[int]:
        return self.resilience.recovery_latency_windows()

    @property
    def pre_fault_benefit(self) -> Optional[float]:
        """Realized benefit of the last clean closed window before any
        fault window opens (``None`` if faults start immediately)."""
        first_fault = min(
            (e.start for e in self.schedule.events), default=float("inf")
        )
        candidates = [
            w.realized_benefit
            for w in self.resilience.windows
            if w.state == "closed" and (w.window + 1) * self.window <= first_fault
        ]
        return candidates[-1] if candidates else None

    @property
    def recovered_benefit(self) -> Optional[float]:
        """Realized benefit of the final window, if the breaker ended
        the run closed (``None`` otherwise — no recovery to measure)."""
        if not self.resilience.windows:
            return None
        last = self.resilience.windows[-1]
        return last.realized_benefit if last.state == "closed" else None

    @property
    def benefit_recovery_ratio(self) -> Optional[float]:
        """recovered / pre-fault benefit (1.0 = full recovery)."""
        pre = self.pre_fault_benefit
        post = self.recovered_benefit
        if pre is None or post is None or pre <= 0:
            return None
        return post / pre


def run_chaos(
    seed: int = 0,
    profile: str = "random",
    num_windows: int = 8,
    window: float = 4.0,
    scenario: str = "idle",
    tasks: Optional[TaskSet] = None,
    schedule: Optional[FaultSchedule] = None,
    breaker: Optional[CircuitBreaker] = None,
    solver: str = "dp",
) -> ChaosReport:
    """One full chaos run; see the module docstring for the properties.

    ``schedule`` overrides the profile with a hand-scripted timeline;
    ``tasks`` defaults to the paper's Table 1 case-study set.
    """
    if tasks is None:
        from ..vision.tasks import table1_task_set

        tasks = table1_task_set()
    horizon = num_windows * window
    if schedule is None:
        schedule = build_profile_schedule(profile, horizon, seed=seed)
    else:
        profile = "custom"
    system = ResilientOffloadingSystem(
        tasks,
        scenario=scenario,
        solver=solver,
        seed=seed,
        window=window,
        fault_schedule=schedule,
        breaker=breaker,
    )
    resilience = system.run(num_windows=num_windows)
    return ChaosReport(
        profile=profile,
        seed=seed,
        scenario=scenario,
        window=window,
        num_windows=num_windows,
        schedule=schedule,
        resilience=resilience,
    )


def format_chaos(report: ChaosReport) -> str:
    """Human-readable chaos verdict + per-window table."""
    lines = [
        f"chaos run: profile={report.profile} seed={report.seed} "
        f"scenario={report.scenario} "
        f"({report.num_windows} windows x {report.window:g}s)",
        "fault schedule:",
    ]
    for e in report.schedule.events:
        lines.append(
            f"  {e.kind:>13} [{e.start:7.2f}, {e.end:7.2f})"
            f"  magnitude={e.magnitude:g}"
            + (f" extra={e.extra:g}s" if e.kind == "delay" else "")
        )
    lines.append("")
    lines.append(
        f"{'win':>3} {'state':>9} {'offl':>5} {'ret':>4} {'comp':>5} "
        f"{'fail%':>6} {'benefit':>9} {'misses':>6}"
    )
    for w in report.resilience.windows:
        lines.append(
            f"{w.window:>3} {w.state:>9} {w.offloaded:>5} {w.returned:>4} "
            f"{w.compensated:>5} {w.failure_rate:>6.0%} "
            f"{w.realized_benefit:>9.1f} {w.deadline_misses:>6}"
        )
    lines.append("")
    ok = report.hard_deadline_invariant
    lines.append(
        f"hard-deadline invariant: "
        f"{'OK' if ok else 'VIOLATED'} ({report.deadline_misses} misses)"
    )
    lines.append(
        f"circuit breaker: trips={report.trips} "
        f"recoveries={report.recoveries} "
        f"degraded windows={report.degraded_windows}"
    )
    latency = report.recovery_latency_windows
    if latency is not None:
        lines.append(f"recovery latency: {latency} window(s)")
    ratio = report.benefit_recovery_ratio
    if ratio is not None:
        lines.append(
            f"benefit recovery: {ratio:.0%} of pre-fault window "
            f"({report.recovered_benefit:.1f} vs "
            f"{report.pre_fault_benefit:.1f})"
        )
    return "\n".join(lines)
