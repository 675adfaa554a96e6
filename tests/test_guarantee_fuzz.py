"""Failure-injection fuzzing of the hard real-time guarantee.

The central claim of the paper: once the Theorem 3 test accepts a
configuration, NO behaviour of the unreliable component can cause a
deadline miss — results may arrive instantly, arbitrarily late, or
never, in any per-job mix.  These tests throw randomized adversarial
transports, execution-time variation and sporadic release jitter at the
split-deadline scheduler and assert the guarantee holds every time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedulability import theorem3_test
from repro.experiments.ablations import greedy_assignments
from repro.faults import FaultInjectionTransport, FaultSchedule
from repro.sched.exec_time import UniformScaleModel
from repro.sched.offload_scheduler import OffloadingScheduler
from repro.sched.transport import (
    DistributionTransport,
    NeverRespondsTransport,
)
from repro.sim.engine import Simulator
from repro.workloads.generator import random_offloading_task_set


class ChaoticTransport:
    """Adversarial per-request behaviour: instant, late, or silent."""

    def __init__(self, sim: Simulator, rng: np.random.Generator) -> None:
        self.sim = sim
        self.rng = rng

    def submit(self, request, on_result):
        roll = self.rng.random()
        if roll < 0.3:
            return  # never respond
        if roll < 0.6:
            latency = float(self.rng.uniform(0.0, 0.2 * request.response_budget))
        else:
            # late: just past the budget up to absurdly late
            latency = float(
                request.response_budget * self.rng.uniform(1.0, 10.0)
            )
        self.sim.schedule(latency, lambda ev: on_result(ev.time))


def _feasible_configuration(seed: int):
    rng = np.random.default_rng(seed)
    utilization = float(rng.uniform(0.4, 0.9))
    tasks = random_offloading_task_set(
        rng, num_tasks=int(rng.integers(3, 8)),
        total_utilization=utilization,
    )
    assignments = greedy_assignments(tasks)
    response_times = {a.task_id: a.response_time for a in assignments}
    assert theorem3_test(tasks, assignments).feasible
    return tasks, response_times, rng


@pytest.mark.parametrize("seed", range(15))
def test_chaotic_server_never_breaks_deadlines(seed):
    tasks, response_times, rng = _feasible_configuration(seed)
    sim = Simulator()
    scheduler = OffloadingScheduler(
        sim, tasks, response_times=response_times,
        transport=ChaoticTransport(sim, rng),
    )
    horizon = 25.0 * max(t.period for t in tasks)
    trace = scheduler.run(horizon)
    assert trace.all_deadlines_met, (
        f"seed {seed}: {trace.deadline_miss_count} misses under chaos"
    )
    assert len(trace.jobs) > 10  # the run actually exercised releases
    # the schedule must also be a *correct* EDF schedule, not just lucky
    from tests.oracles.validator import validate_schedule

    assert validate_schedule(trace) == []


@pytest.mark.parametrize("seed", range(10))
def test_variable_execution_times_never_break_deadlines(seed):
    """Actual execution below WCET can only help — verify it does."""
    tasks, response_times, rng = _feasible_configuration(seed + 500)
    sim = Simulator()
    scheduler = OffloadingScheduler(
        sim, tasks, response_times=response_times,
        transport=ChaoticTransport(sim, rng),
        exec_model=UniformScaleModel(low_fraction=0.3, rng=rng),
    )
    trace = scheduler.run(20.0 * max(t.period for t in tasks))
    assert trace.all_deadlines_met


@pytest.mark.parametrize("seed", range(10))
def test_sporadic_releases_never_break_deadlines(seed):
    """Sporadic (late) releases only reduce demand; the guarantee must
    survive random inter-arrival inflation."""
    tasks, response_times, rng = _feasible_configuration(seed + 900)
    sim = Simulator()
    scheduler = OffloadingScheduler(
        sim, tasks, response_times=response_times,
        transport=NeverRespondsTransport(),
        release_jitter=lambda task: float(
            rng.exponential(0.3 * task.period)
        ),
    )
    trace = scheduler.run(20.0 * max(t.period for t in tasks))
    assert trace.all_deadlines_met


@pytest.mark.parametrize("seed", range(10))
def test_injected_fault_schedules_never_break_deadlines(seed):
    """Seeded chaos on top of a stochastic transport: crash windows,
    partitions, drops and delivery faults may only cost benefit — the
    no-deadline-miss invariant must survive every schedule."""
    tasks, response_times, rng = _feasible_configuration(seed + 1300)
    sim = Simulator()
    horizon = 20.0 * max(t.period for t in tasks)
    schedule = FaultSchedule.random(rng, horizon=horizon, mean_faults=6.0)
    inner = DistributionTransport(
        sim,
        latency_sampler=lambda: float(rng.exponential(0.05)),
        loss_probability=0.05,
        rng=rng,
    )
    transport = FaultInjectionTransport(sim, inner, schedule, rng=rng)
    scheduler = OffloadingScheduler(
        sim, tasks, response_times=response_times, transport=transport,
    )
    trace = scheduler.run(horizon)
    assert trace.all_deadlines_met, (
        f"seed {seed}: {trace.deadline_miss_count} misses under "
        f"schedule {schedule!r}"
    )


@pytest.mark.parametrize(
    "builder",
    [
        lambda horizon: FaultSchedule.outage(0.0, horizon),  # dead forever
        lambda horizon: FaultSchedule.outage(horizon * 0.2, horizon * 0.6),
        lambda horizon: FaultSchedule.partition(0.0, horizon * 0.5),
        lambda horizon: FaultSchedule.latency_storm(
            0.0, horizon, extra_latency=horizon
        ),
    ],
    ids=["permanent-crash", "mid-run-crash", "partition", "storm"],
)
def test_scripted_fault_schedules_never_break_deadlines(builder):
    tasks, response_times, rng = _feasible_configuration(77)
    sim = Simulator()
    horizon = 20.0 * max(t.period for t in tasks)
    inner = DistributionTransport(
        sim, latency_sampler=lambda: float(rng.exponential(0.05)), rng=rng
    )
    transport = FaultInjectionTransport(
        sim, inner, builder(horizon), rng=rng
    )
    scheduler = OffloadingScheduler(
        sim, tasks, response_times=response_times, transport=transport,
    )
    trace = scheduler.run(horizon)
    assert trace.all_deadlines_met


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=25, deadline=None)
def test_guarantee_property(seed):
    """Hypothesis-driven version over the full seed space."""
    tasks, response_times, rng = _feasible_configuration(seed)
    sim = Simulator()
    scheduler = OffloadingScheduler(
        sim, tasks, response_times=response_times,
        transport=ChaoticTransport(sim, rng),
        exec_model=UniformScaleModel(low_fraction=0.5, rng=rng),
    )
    trace = scheduler.run(12.0 * max(t.period for t in tasks))
    assert trace.all_deadlines_met
