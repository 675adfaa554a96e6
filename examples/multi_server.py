#!/usr/bin/env python
"""Choosing between two unreliable servers — the multi-server extension.

A robot can reach a nearby *edge* box (fast network, modest GPU, lightly
loaded) and a *cloud* GPU farm (slow network, strong GPUs, heavily
contended).  Per task and per server the estimator measures a benefit
function; one multiple-choice knapsack then jointly decides, for every
task: local or offloaded, to which server, at which estimated response
time.

The run ends on the discrete-event simulation of BOTH servers at once,
with requests routed per the decision — and, as always, every deadline
met regardless of what the servers do.

Run:  python examples/multi_server.py
"""

from repro.core.odm import OffloadingDecisionManager
from repro.estimator.benefit_builder import quality_benefit
from repro.estimator.sampling import probe_server
from repro.sched.offload_scheduler import OffloadingScheduler
from repro.sched.transport import RoutingTransport
from repro.server.scenarios import SCENARIOS, ServerScenario, build_server
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams, derive_seed
from repro.vision.tasks import (
    DEFAULT_LEVEL_FACTORS,
    TABLE1,
    level_quality,
    table1_task_set,
)

#: The two candidate servers: an idle edge box with one mid-speed GPU,
#: and the busy two-GPU cloud farm from the case study.
EDGE = ServerScenario(
    name="edge",
    description="nearby edge box: 1 GPU, idle, crisp network",
    num_gpus=1,
    gpu_speed=0.8,
    bandwidth=5.0e6,
    base_latency=0.001,
    background_rate=0.0,
)
CLOUD = ServerScenario(
    name="cloud",
    description="cloud farm: 2 fast GPUs, moderately contended, WAN",
    num_gpus=2,
    gpu_speed=1.5,
    bandwidth=1.5e6,
    base_latency=0.015,
    background_rate=9.0,
    background_mean_work=0.08,
)


def measure_benefits(seed: int = 11):
    """Probe both servers per task level and build benefit functions."""
    benefits = {"edge": {}, "cloud": {}}
    for row in TABLE1:
        anchors = [r for r, _ in row.points]
        qualities = {
            factor: level_quality(factor) for factor in DEFAULT_LEVEL_FACTORS
        }
        for name, scenario in (("edge", EDGE), ("cloud", CLOUD)):
            samples = probe_server(
                scenario, levels=anchors, samples_per_level=40,
                seed=derive_seed(seed, f"{name}:{row.task_id}"),
            )
            per_level = {
                factor: samples[anchor]
                for factor, anchor in zip(DEFAULT_LEVEL_FACTORS, anchors)
            }
            benefits[name][row.task_id] = quality_benefit(
                local_quality=row.local_benefit,
                level_samples=per_level,
                level_qualities=qualities,
                percentile=90,
            )
    return benefits


def main() -> None:
    tasks = table1_task_set()
    print("probing both servers (per task, per level)...")
    benefits = measure_benefits()

    decision = OffloadingDecisionManager("dp").decide(tasks, benefits)
    print("\nplacements:")
    for task_id, (server, r) in sorted(decision.placements.items()):
        where = f"{server} @ R={r * 1000:.0f} ms" if server else "local"
        print(f"  {task_id}: {where}")
    print(f"expected benefit: {decision.expected_benefit:.1f}  "
          f"(demand rate {decision.total_demand_rate:.3f})")

    # run both servers side by side on one engine
    sim = Simulator()
    streams = RandomStreams(seed=23)
    built = {
        "edge": build_server(sim, EDGE, streams.spawn("edge")),
        "cloud": build_server(sim, CLOUD, streams.spawn("cloud")),
    }
    routing = RoutingTransport(
        decision.routes,
        {name: b.transport for name, b in built.items()},
    )
    scheduler = OffloadingScheduler(
        sim, tasks, response_times=decision.response_times,
        transport=routing,
    )
    trace = scheduler.run(10.0)

    offloaded = [r for r in trace.jobs.values() if r.offloaded]
    returned = sum(1 for r in offloaded if r.result_returned)
    print(f"\n10 s run: {len(trace.jobs)} jobs, "
          f"{len(offloaded)} offloaded, {returned} returned in time, "
          f"{trace.deadline_miss_count} deadline misses")
    for name, b in built.items():
        print(f"  {name}: {b.transport.submitted} requests, "
              f"{b.transport.completed} completed")


if __name__ == "__main__":
    main()
