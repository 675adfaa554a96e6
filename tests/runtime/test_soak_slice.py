"""A short derandomized slice of the guarantee soak.

Seeded 30-task §6.2 sets run split-deadline EDF on the ``busy`` GPU
server, where background work outpaces the GPUs and device queues grow
with simulated time.  Each set must pass Theorem 3 and miss no hard
deadline, and what it produced is pinned, so any change to the
simulator, scheduler or GPU dispatch that alters a decision shows here.
"""

from functools import lru_cache

import pytest

from repro.core.schedulability import theorem3_test
from repro.runtime.system import OffloadingSystem
from repro.sim.rng import RandomStreams
from repro.workloads.generator import paper_simulation_task_set

SEED = 11
SETS = 4

#: (set index, horizon) -> (jobs, completed, offloaded, returned,
#: compensated, deadline misses, realized benefit)
PINNED = {
    (0, 30.0): (1399, 1399, 1116, 2, 1114, 0, 2.0),
    (1, 30.0): (1384, 1384, 1060, 1, 1059, 0, 1.0),
    (2, 30.0): (1393, 1393, 1200, 1, 1199, 0, 1.0),
    (3, 60.0): (2802, 2802, 2143, 0, 2143, 0, 0.0),
}


@lru_cache(maxsize=None)
def _systems():
    streams = RandomStreams(seed=SEED)
    sets_rng, sims_rng = streams.get("workloads"), streams.get("sims")
    return tuple(
        OffloadingSystem(
            paper_simulation_task_set(sets_rng),
            scenario="busy",
            seed=int(sims_rng.integers(2**31)),
        )
        for _ in range(SETS)
    )


@pytest.mark.parametrize("index,horizon", sorted(PINNED))
def test_busy_soak_slice(index, horizon):
    system = _systems()[index]
    decision = system.decide()
    assert theorem3_test(system.tasks, decision.assignments()).feasible

    report = system.run(horizon=horizon)
    assert report.deadline_misses == 0
    assert (
        len(report.trace.jobs),
        report.jobs_completed,
        report.offloaded_jobs,
        report.returned_jobs,
        report.compensated_jobs,
        report.deadline_misses,
        report.realized_benefit,
    ) == PINNED[(index, horizon)]
