#!/usr/bin/env python
"""A federation of servers, one routed knapsack — end to end.

Builds a 4-server heterogeneous topology (edge/cloud/peer kinds, the
last server twice as fast as the first), estimates per-server benefit
functions for a generated task set through each server's wifi link,
and takes one routed MCKP decision: offload-or-not, route and benefit
level for every task under the shared Theorem 3 budget.

Then it walks the degradation ladder: the busiest server's circuit
breaker trips, tasks re-route to the survivors (never back to the dead
server), and after the breaker's half-open probe succeeds the original
decision returns bit-for-bit from the solver cache.

Finally it runs the CI-sized topology sweep — every instance audited
against the reference DP, an exact brute force over server x level
assignments, and the single-server/prune/recovery/federation checks.

Run:  python examples/topology_sweep.py
"""

from collections import Counter

from repro.core.odm import OffloadingDecisionManager
from repro.experiments import TopologySweepConfig, run_topology_sweep
from repro.knapsack import SolverCache
from repro.scenarios import ScenarioSpec, generate_scenario
from repro.sim.rng import RandomStreams
from repro.topology import estimate_topology_benefits, make_topology


def main() -> None:
    tasks = generate_scenario(ScenarioSpec(num_tasks=8), 4)
    topo = make_topology(num_servers=4, spread=1.0, link_quality="wifi")
    print("topology:")
    for server in topo:
        print(f"  {server.server_id}: {server.kind}, "
              f"speed {server.speed:.2f}x, link {server.link.name}")

    benefits, bounds = estimate_topology_benefits(
        tasks, topo, RandomStreams(17), num_samples=64
    )
    router = OffloadingDecisionManager(
        "dp", cache=SolverCache(), resolution=2_000
    )
    decision = router.decide(tasks, benefits, bounds)
    print("\nrouted decision:")
    for task_id, (server, r) in sorted(decision.placements.items()):
        where = f"{server} @ R={r * 1000:.0f} ms" if server else "local"
        print(f"  {task_id}: {where}")
    print(f"expected benefit {decision.expected_benefit:.1f}, "
          f"demand rate {decision.total_demand_rate:.3f}, "
          f"feasible={decision.schedulability.feasible}")

    routed = Counter(
        server for server, r in decision.placements.values() if r > 0
    )
    victim = routed.most_common(1)[0][0] if routed else None
    if victim is not None:
        health = router.health
        n = health.breaker(victim).min_samples
        health.record(victim, failures=n)          # a window of failures
        health.close_window(0)
        degraded = router.decide(tasks, benefits, bounds)
        print(f"\n{victim} died (breaker open): "
              f"benefit {decision.expected_benefit:.1f} -> "
              f"{degraded.expected_benefit:.1f}, "
              f"pruned={degraded.pruned_servers}")

        health.close_window(1)                     # cooldown: half_open
        health.record(victim, successes=n)         # clean probe: closed
        health.close_window(2)
        recovered = router.decide(tasks, benefits, bounds)
        identical = recovered.placements == decision.placements
        print(f"{victim} recovered: decision restored bit-for-bit: "
              f"{identical} (cache hits {router.cache.hits})")

    print("\nrunning the 6-cell smoke sweep (5-way audit per instance)...")
    report = run_topology_sweep(
        config=TopologySweepConfig(seed=0, num_samples=32), smoke=True
    )
    print(report.format())
    print(f"clean: {report.ok}")


if __name__ == "__main__":
    main()
