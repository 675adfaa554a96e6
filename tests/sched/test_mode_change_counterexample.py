"""A decision switched at each task's next release can miss a deadline.

Theorem 3 is a per-decision guarantee.  The scheduler reads
``response_times`` at every release, so assigning a new map mid-run
switches each task at its next release (a job boundary).  Below, two
decisions are each Theorem-3 feasible and each meets every deadline on
its own against a server that never answers, yet switching from
both-offloaded to all-local at t = 3.5 — what a breaker trip does —
misses t0's job 1.  This is the non-vacuity half of the regression test
for a mode-change rule (ROADMAP item 11): under next-release switching
the set must miss.
"""

import pytest

from repro.core.benefit import BenefitFunction, BenefitPoint
from repro.core.schedulability import OffloadAssignment, theorem3_test
from repro.core.task import OffloadableTask, TaskSet
from repro.sched.offload_scheduler import OffloadingScheduler
from repro.sched.transport import NeverRespondsTransport
from repro.sim.engine import Simulator

OFFLOADED = {"t0": 0.94, "t1": 0.53}
ALL_LOCAL = {"t0": 0.0, "t1": 0.0}
HORIZON = 200.0


def build_tasks() -> TaskSet:
    def task(task_id, wcet, period, setup, compensation, r):
        return OffloadableTask(
            task_id=task_id,
            wcet=wcet,
            period=period,
            setup_time=setup,
            compensation_time=compensation,
            benefit=BenefitFunction(
                [BenefitPoint(0.0, 1.0), BenefitPoint(r, 2.0)]
            ),
        )

    return TaskSet(
        [
            task("t0", 1.8, 4.0, 0.29, 0.64, OFFLOADED["t0"]),
            task("t1", 2.7, 5.0, 0.4, 2.59, OFFLOADED["t1"]),
        ]
    )


def run(response_times, switch_to=None, switch_at=3.5):
    sim = Simulator()
    scheduler = OffloadingScheduler(
        sim,
        build_tasks(),
        response_times=response_times,
        transport=NeverRespondsTransport(),
        release_offsets={"t0": 0.6, "t1": 3.3},
    )
    if switch_to is not None:

        def switch(_event):
            scheduler.response_times = dict(switch_to)

        sim.schedule_at(switch_at, switch)
    return scheduler.run(HORIZON)


@pytest.mark.parametrize(
    "response_times, demand",
    [(OFFLOADED, 0.9728), (ALL_LOCAL, 0.99)],
    ids=["offloaded", "all-local"],
)
def test_each_decision_alone_is_feasible_and_meets_every_deadline(
    response_times, demand
):
    assignments = [
        OffloadAssignment(task_id, r)
        for task_id, r in response_times.items()
        if r > 0
    ]
    check = theorem3_test(build_tasks(), assignments)
    assert check.feasible
    assert check.total_demand_rate == pytest.approx(demand, abs=1e-4)
    trace = run(response_times)
    assert trace.deadline_miss_count == 0


def test_next_release_switch_to_all_local_misses():
    trace = run(OFFLOADED, switch_to=ALL_LOCAL)
    assert trace.deadline_miss_count == 1
    first = trace.misses[0]
    assert (first.task_id, first.job_id) == ("t0", 1)
    assert first.absolute_deadline == pytest.approx(8.6)
    assert first.finish == pytest.approx(8.62)
