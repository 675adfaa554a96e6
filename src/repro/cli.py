"""Command-line interface: ``python -m repro <experiment> [options]``.

Subcommands regenerate the paper's artifacts from the terminal:

* ``table1`` — E1 benefit-function regeneration;
* ``fig2`` — E2 case study (24 work sets × 3 scenarios);
* ``fig3`` — E3 estimation-accuracy sweep;
* ``ablation-split`` / ``ablation-solvers`` / ``ablation-pessimism``;
* ``chaos`` — fault-injected resilience run (circuit breaker + the
  no-deadline-miss invariant);
* ``demo`` — one end-to-end run with a schedule Gantt chart.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .experiments.ablations import (
    run_pessimism_ablation,
    run_solver_ablation,
    run_split_ablation,
)
from .experiments.baselines_comparison import (
    format_comparison,
    run_baseline_comparison,
)
from .experiments.fig2 import format_fig2, run_fig2
from .experiments.fig3 import format_fig3, run_fig3
from .experiments.split_policies import run_split_policy_ablation
from .experiments.table1 import format_table1, regenerate_table1
from .runtime.energy import compare_energy, energy_report
from .runtime.system import OffloadingSystem
from .vision.tasks import table1_task_set

__all__ = ["main"]


def _write(path: str, text: str) -> None:
    """Write one ``--out``/``--svg`` file and say so."""
    with open(path, "w") as handle:
        handle.write(text)
    print(f"wrote {path}")


def _write_json(path: str, record) -> None:
    """``--out``: a report as sorted, indented JSON."""
    _write(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def _cmd_table1(args: argparse.Namespace) -> int:
    result = regenerate_table1(
        scenario=args.scenario,
        samples_per_level=args.samples,
        seed=args.seed,
        workers=args.workers,
    )
    print(format_table1(result))
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    result = run_fig2(
        horizon=args.horizon, solver=args.solver, seed=args.seed,
        workers=args.workers,
    )
    print(format_fig2(result))
    if args.svg:
        from .reporting.charts import svg_bar_chart

        scenarios = list(result.points)
        svg = svg_bar_chart(
            categories=list(range(len(result.series(scenarios[0])))),
            series={s: result.series(s) for s in scenarios},
            title="Figure 2: normalized total weighted benefits",
            x_label="work set", y_label="normalized benefit",
            baseline=1.0,
        )
        _write(args.svg, svg)
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    result = run_fig3(
        num_task_sets=args.task_sets, seed=args.seed,
        workers=args.workers, resolution=args.resolution,
    )
    print(format_fig3(result))
    if args.svg:
        from .reporting.charts import svg_line_chart

        svg = svg_line_chart(
            result.ratios, result.normalized,
            title="Figure 3: normalized total benefits",
            x_label="estimation accuracy ratio",
            y_label="normalized benefit",
        )
        _write(args.svg, svg)
    return 0


def _cmd_ablation_split(args: argparse.Namespace) -> int:
    result = run_split_ablation(
        sets_per_level=args.sets, seed=args.seed, workers=args.workers
    )
    print("A1: acceptance ratio (no deadline miss) by utilization")
    print("util    split    naive")
    for i, u in enumerate(result.utilizations):
        split = result.acceptance_ratio("split")[i]
        naive = result.acceptance_ratio("naive")[i]
        print(f"{u:4.2f}  {split:7.2%}  {naive:7.2%}")
    return 0


def _cmd_ablation_solvers(args: argparse.Namespace) -> int:
    result = run_solver_ablation(
        num_instances=args.instances, seed=args.seed, workers=args.workers
    )
    print("A2: MCKP solver quality (vs exact) and mean runtime")
    for name in result.solvers:
        print(
            f"{name:>12}: quality={result.quality[name]:.4f} "
            f"runtime={result.runtime_seconds[name] * 1000:.2f} ms"
        )
    return 0


def _cmd_ablation_pessimism(args: argparse.Namespace) -> int:
    result = run_pessimism_ablation(
        num_configurations=args.configs, seed=args.seed,
        workers=args.workers,
    )
    print("A3: schedulability-test pessimism")
    print(f"configurations:     {result.configurations}")
    print(f"Theorem 3 accepts:  {result.theorem3_accepts}")
    print(f"exact dbf accepts:  {result.exact_accepts}")
    print(f"exact-only accepts: {result.exact_only}")
    print(f"unsound (must be 0): {result.unsound}")
    return 0


def _cmd_ablation_split_policy(args: argparse.Namespace) -> int:
    result = run_split_policy_ablation(
        num_configurations=args.configs, seed=args.seed
    )
    print("A4: acceptance by deadline-split policy "
          f"({result.configurations} configurations)")
    for policy in sorted(result.accepts):
        print(
            f"{policy:>14}: accepts={result.accepts[policy]:3d} "
            f"({result.acceptance_ratio(policy):6.1%})  "
            f"unsound={result.unsound[policy]}"
        )
    return 0


def _cmd_ablation_baselines(args: argparse.Namespace) -> int:
    comparison = run_baseline_comparison(
        seed=args.seed, horizon=args.horizon, workers=args.workers
    )
    print(format_comparison(comparison))
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    from .sched.offload_scheduler import OffloadingScheduler
    from .sim.engine import Simulator

    tasks = table1_task_set()
    offload = OffloadingSystem(
        tasks, scenario=args.scenario, seed=args.seed
    ).run(args.horizon)
    sim = Simulator()
    local_trace = OffloadingScheduler(sim, table1_task_set()).run(
        args.horizon
    )
    off_energy = energy_report(offload.trace, args.horizon)
    local_energy = energy_report(local_trace, args.horizon)
    saving = compare_energy(off_energy, local_energy)
    print(f"client energy over {args.horizon:.0f}s "
          f"(scenario={args.scenario}):")
    print(f"  offloading: {off_energy.total_energy:8.2f} J "
          f"(avg {off_energy.average_power:.2f} W)")
    print(f"  all-local:  {local_energy.total_energy:8.2f} J "
          f"(avg {local_energy.average_power:.2f} W)")
    print(f"  saving:     {saving:+.1%}")
    return 0


def _cmd_adaptive(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .core.benefit import scale_response_times
    from .core.task import TaskSet
    from .runtime.adaptive import AdaptiveOffloadingSystem

    beliefs = TaskSet(
        replace(task, benefit=scale_response_times(
            task.benefit, args.belief_scale))
        for task in table1_task_set()
    )
    system = AdaptiveOffloadingSystem(
        beliefs, scenario=args.scenario, seed=args.seed,
        window=args.window,
    )
    report = system.run(num_windows=args.windows)
    print(f"adaptive run (beliefs scaled by {args.belief_scale:g}, "
          f"scenario={args.scenario}):")
    print(f"{'window':>6} {'returned':>9} {'compensated':>12} "
          f"{'benefit':>9} {'misses':>7}")
    for w in report.windows:
        print(f"{w.window:>6} {w.return_rate:>8.0%} "
              f"{w.compensation_rate:>11.0%} {w.realized_benefit:>9.0f} "
              f"{w.deadline_misses:>7}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults.chaos import format_chaos, run_chaos

    num_windows = args.windows
    window = args.window
    if args.short:  # CI smoke: same story, quarter the simulated time
        num_windows = min(num_windows, 6)
        window = min(window, 2.0)
    report = run_chaos(
        seed=args.seed,
        profile=args.profile,
        num_windows=num_windows,
        window=window,
        scenario=args.scenario,
    )
    print(format_chaos(report))
    return 0 if report.hard_deadline_invariant else 1


def _build_observed_run(args: argparse.Namespace):
    """Shared decide+run with observability on for trace/metrics cmds."""
    from .observability import Observability

    obs = Observability.enabled()
    system = OffloadingSystem(
        table1_task_set(),
        scenario=args.scenario,
        solver=args.solver,
        seed=args.seed,
        observability=obs,
        cache=True,
    )
    report = system.run(horizon=args.horizon)
    return obs, report


def _cmd_trace(args: argparse.Namespace) -> int:
    from .reporting.export import bus_to_jsonl

    obs, _ = _build_observed_run(args)
    text = bus_to_jsonl(obs.bus)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(
            f"wrote {obs.bus.emitted} events "
            f"({obs.bus.dropped} dropped) to {args.out}"
        )
    else:
        print(text, end="")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .reporting.export import metrics_to_csv, metrics_to_json

    obs, _ = _build_observed_run(args)
    text = (
        metrics_to_csv(obs.metrics)
        if args.format == "csv"
        else metrics_to_json(obs.metrics)
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote metrics ({args.format}) to {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    if args.profile and obs.profiler is not None:
        profile = obs.profiler.to_dict()
        if profile:
            print("\nprofile (wall seconds):")
            for name in sorted(profile):
                stats = profile[name]
                print(
                    f"  {name:>16}: count={stats['count']:>4} "
                    f"total={stats['total_s']:.4f}s "
                    f"mean={stats['mean_s'] * 1000:.3f}ms"
                )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf.bench import format_bench, run_bench

    report = run_bench(
        quick=args.quick, workers=args.workers, seed=args.seed
    )
    print(format_bench(report))
    if args.out:
        _write_json(args.out, report.to_dict())
    return 0 if report.differential_ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .observability import Observability
    from .service import BatchPolicy, ODMService, serve_tcp

    service = ODMService(
        resolution=args.resolution,
        batch_policy=BatchPolicy(
            max_batch=args.max_batch,
            max_wait=args.max_wait,
            queue_capacity=args.queue_capacity,
        ),
        observability=Observability.enabled(profile=False),
    )
    asyncio.run(
        serve_tcp(
            service, host=args.host, port=args.port,
            duration=args.duration,
        )
    )
    return 0


def _build_scenario_pool(matrix_name: str, seed: int, num_tasks: int):
    """Expand a named campaign matrix into a loadgen task-set pool.

    Feeds campaign-shaped instances (utilization regimes, deadline
    styles, burst shapes) through the load generators instead of their
    built-in uniform pool.  Overload cells (``util_cap > 1``) are
    filtered by :func:`~repro.scenarios.bursts.scenario_pool` — the
    online service rejects an infeasible all-local baseline outright.
    """
    from .scenarios import default_matrix, scenario_pool, smoke_matrix
    from .sim.rng import derive_seed

    matrix = (
        smoke_matrix(num_tasks=num_tasks)
        if matrix_name == "smoke"
        else default_matrix(num_tasks=num_tasks)
    )
    return scenario_pool(
        matrix.cells(),
        derive_seed(seed, f"scenario-pool-{matrix_name}"),
    )


def _add_scenario_pool_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scenario-pool", choices=("smoke", "default"), default=None,
        metavar="MATRIX",
        help=(
            "draw task sets from a campaign matrix (smoke|default) "
            "instead of the built-in uniform pool"
        ),
    )


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from .service import (
        LoadGenConfig,
        ODMService,
        ServiceClient,
        run_loadgen,
    )

    config = LoadGenConfig(
        seed=args.seed,
        bursts=args.bursts,
        mean_burst_size=args.burst_size,
        unique_sets=args.unique_sets,
        num_tasks=args.tasks,
        churn_rate=args.churn,
    )
    pool = (
        _build_scenario_pool(args.scenario_pool, config.seed, args.tasks)
        if args.scenario_pool
        else None
    )

    async def drive():
        if args.in_process:
            async with ODMService(resolution=args.resolution) as service:
                return await run_loadgen(
                    service.submit, config,
                    record_outcome=service.record_outcome,
                    close_window=service.close_health_window,
                    stats=service.stats,
                    resolution=args.resolution,
                    pool=pool,
                )
        client = ServiceClient(args.host, args.port)
        async with client:
            report = await run_loadgen(
                client.submit, config,
                record_outcome=client.record_outcome,
                close_window=client.close_window,
                stats=client.stats,
                resolution=args.resolution,
                pool=pool,
                submit_batch=(
                    client.submit_batch if args.batch_admit else None
                ),
            )
            if args.shutdown:
                await client.shutdown()
            return report

    report = asyncio.run(drive())
    record = report.to_dict()
    latency = record["latency"]
    print(
        f"loadgen: {report.requests} requests over {report.bursts} "
        f"bursts — {report.admitted} admitted, {report.rejected} "
        f"rejected, {report.shed} shed"
    )
    print(f"rungs served: {record['rungs_seen']}")
    print(
        f"degraded-server breaker: opened={report.breaker_opened} "
        f"reclosed={report.breaker_reclosed}"
    )
    print(
        f"service latency p50/p99 (enqueue to resolve): "
        f"{latency['service_p50'] * 1e3:.2f}/"
        f"{latency['service_p99'] * 1e3:.2f} ms"
    )
    print(
        f"audit: {report.anomaly_count} anomalies "
        f"({'OK' if report.ok else 'VIOLATIONS'})"
    )
    for anomaly in report.anomalies:
        print(f"  ! {anomaly}")
    if args.out:
        _write_json(args.out, record)
    return 0 if report.ok else 1


def _cmd_fleet_campaign(args: argparse.Namespace) -> int:
    import asyncio

    from .fleet import FleetCampaignConfig, run_fleet_campaign
    from .service import LoadGenConfig

    config = FleetCampaignConfig(
        seed=args.seed,
        replicas=args.replicas,
        load=LoadGenConfig(
            seed=args.seed,
            bursts=args.bursts,
            mean_burst_size=args.burst_size,
            unique_sets=args.unique_sets,
            num_tasks=args.tasks,
        ),
        policy=args.policy,
        kill_replica=None if args.no_chaos else args.kill_replica,
        lossy_link=None if args.no_chaos else args.lossy_link,
        pacing=args.pacing,
        resolution=args.resolution,
    )
    pool = (
        _build_scenario_pool(args.scenario_pool, args.seed, args.tasks)
        if args.scenario_pool
        else None
    )
    report = asyncio.run(run_fleet_campaign(config, pool=pool))
    record = report.to_dict()
    latency = record["latency"]
    recovery = record["recovery"]
    print(
        f"fleet-campaign: {report.requests} requests over "
        f"{report.bursts} bursts across {args.replicas} replicas — "
        f"{report.admitted} admitted, {report.rejected} rejected, "
        f"{report.shed} shed, {report.unrouted} unrouted"
    )
    print(f"served by: {record['served_by']}")
    router = record["router"]
    print(
        f"router: {router['failovers']} failovers, "
        f"{router['retries']} retries, {router['hedges']} hedges "
        f"({router['hedge_wins']} won), {report.dedup_hits} dedup hits"
    )
    print(
        f"fleet latency p50/p99 (caller wait on the router): "
        f"{latency['fleet_p50'] * 1e3:.2f}/"
        f"{latency['fleet_p99'] * 1e3:.2f} ms; "
        f"shed rate {record['shed_rate']:.3f}"
    )
    print(
        f"chaos: {[e['action'] for e in report.chaos_events]}; "
        f"recoveries {recovery['count']} "
        f"(max {recovery['max_seconds']:.2f}s)"
    )
    print(
        f"degraded-server breaker: opened={report.breaker_opened} "
        f"reclosed={report.breaker_reclosed} "
        f"remote_trips={record['remote_trips']}"
    )
    print(
        f"audit: {report.anomaly_count} anomalies, "
        f"{report.duplicate_deliveries} duplicate deliveries "
        f"({'OK' if report.ok else 'VIOLATIONS'})"
    )
    for anomaly in report.anomalies:
        print(f"  ! {anomaly}")
    if args.out:
        _write_json(args.out, record)
    return 0 if report.ok else 1


def _cmd_fleet_scale(args: argparse.Namespace) -> int:
    import asyncio

    from .fleet import CacheTierConfig, FleetScaleConfig, run_fleet_scale

    config = FleetScaleConfig(
        seed=args.seed,
        replica_counts=tuple(args.replicas),
        rate_multipliers=tuple(args.rates),
        requests_per_cell=args.requests,
        unique_sets=args.unique_sets,
        num_tasks=args.tasks,
        churn_rate=args.churn,
        policy=args.policy,
        resolution=args.resolution,
        cache_tier=not args.no_cache_tier,
        tier=CacheTierConfig(sync_budget=args.sync_budget),
        restart_probes=args.probes,
    )
    pool = (
        _build_scenario_pool(args.scenario_pool, args.seed, args.tasks)
        if args.scenario_pool
        else None
    )
    report = asyncio.run(run_fleet_scale(config, pool=pool))
    record = report.to_dict()
    print(
        f"fleet-scale: {len(record['cells'])} cells "
        f"({len(config.replica_counts)} replica counts x "
        f"{len(config.rate_multipliers)} rates), cache tier "
        f"{'on' if config.cache_tier else 'off'}"
    )
    for cell in record["cells"]:
        latency = cell["latency"]
        attribution = cell["cache_attribution"]
        print(
            f"  {cell['replicas']}r x{cell['rate_multiplier']:g}: "
            f"{cell['throughput']:.0f} req/s, p50/p99 "
            f"{latency['p50'] * 1e3:.2f}/{latency['p99'] * 1e3:.2f} ms, "
            f"shed {cell['shed']}; hits local={attribution['hits_local']} "
            f"replicated={attribution['hits_replicated']} "
            f"delta={attribution['delta_repaired']}"
        )
    restart = record["restart_comparison"]
    warm, cold = restart["warm"], restart["cold"]
    print(
        f"restart: warm hit {warm['post_restart_hit_rate']:.2f} vs "
        f"cold {cold['post_restart_hit_rate']:.2f}; back-to-steady "
        f"{warm['time_back_to_steady_p99'] * 1e3:.1f} vs "
        f"{cold['time_back_to_steady_p99'] * 1e3:.1f} ms "
        f"({'warm better' if restart['warm_better'] else 'NO WARM WIN'})"
    )
    print(
        f"audit: {report.anomaly_count} anomalies, "
        f"{report.duplicate_deliveries} duplicate deliveries "
        f"({'OK' if report.ok else 'VIOLATIONS'})"
    )
    if args.out:
        _write_json(args.out, record)
    return 0 if report.ok else 1


def _run_sweep(
    args: argparse.Namespace, run, matrices, config_cls, param, chart
) -> int:
    """The audited-sweep CLI path shared by ``campaign`` and
    ``topology-sweep``: build the matrix and config from the shared
    flags, run, re-run at ``--verify-parallel`` workers and require
    identical results, print, write ``--svg``/``--out``.

    ``matrices = (smoke, full)`` are the sweep's matrix factories,
    ``param`` its own config field, and ``chart = (axis, {series:
    marginal key}, title, x_label, y_label)`` picks the marginals the
    ``--svg`` bar chart draws.
    """
    smoke, full = matrices
    matrix = smoke() if args.smoke else full(num_tasks=args.tasks)
    config = config_cls(
        seed=args.seed,
        replications=args.replications,
        resolution=args.resolution,
        **param,
    )
    report = run(matrix, config, workers=args.workers)
    if args.verify_parallel and args.verify_parallel > 1:
        parallel = run(matrix, config, workers=args.verify_parallel)
        report.serial_parallel_identical = (
            parallel.comparable_dict() == report.comparable_dict()
        )
        print(
            f"verify: workers={args.verify_parallel} "
            f"({parallel.mode}, {parallel.wall_seconds:.1f}s) "
            f"{'==' if report.serial_parallel_identical else '!='} "
            f"workers={report.workers} "
            f"({report.mode}, {report.wall_seconds:.1f}s) — "
            + (
                "bit-for-bit identical"
                if report.serial_parallel_identical
                else "AGGREGATES DIVERGED"
            )
        )
    print(report.format())
    for anomaly in report.audit["anomalies"]:
        print(f"  ! {anomaly}")
    if args.svg:
        from .reporting import svg_bar_chart

        axis, keys, title, x_label, y_label = chart
        per = report.marginals.get(axis, {})
        labels = list(per)
        series = {
            name: [per[lb][key] or 0.0 for lb in labels]
            for name, key in keys.items()
        }
        _write(
            args.svg,
            svg_bar_chart(
                labels, series, title=title, x_label=x_label, y_label=y_label
            ),
        )
    if args.out:
        _write_json(args.out, report.to_dict())
    ok = report.ok and report.serial_parallel_identical is not False
    return 0 if ok else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .scenarios import (
        CampaignConfig,
        default_matrix,
        run_campaign,
        smoke_matrix,
    )

    chart = (
        "util_cap",
        {
            "schedulable": "schedulable_fraction",
            "offload": "mean_offload_fraction",
            "miss rate": "mean_miss_rate",
        },
        "Campaign marginals vs utilization cap",
        "utilization cap",
        "fraction",
    )
    return _run_sweep(
        args, run_campaign, (smoke_matrix, default_matrix), CampaignConfig,
        {"energy_weight": args.energy_weight}, chart,
    )


def _cmd_topology_sweep(args: argparse.Namespace) -> int:
    from .experiments import TopologySweepConfig, run_topology_sweep
    from .scenarios import topology_matrix, topology_smoke_matrix

    chart = (
        "servers",
        {"benefit": "mean_benefit", "servers used": "mean_servers_used"},
        "Topology sweep marginals vs server count",
        "server count",
        "value",
    )
    return _run_sweep(
        args, run_topology_sweep, (topology_smoke_matrix, topology_matrix),
        TopologySweepConfig, {"num_samples": args.samples}, chart,
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    tasks = table1_task_set()
    system = OffloadingSystem(
        tasks, scenario=args.scenario, solver=args.solver, seed=args.seed
    )
    report = system.run(horizon=args.horizon)
    print(report.summary())
    print()
    print(report.trace.gantt(width=70, horizon=min(args.horizon, 6.0)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Computation Offloading by Using Timing "
            "Unreliable Components in Real-Time Systems' (DAC 2014)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workers(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers", type=int, default=None,
            help="worker processes for the sweep (-1 = all cores; "
            "results are identical at any worker count)",
        )

    def add_sweep_args(p: argparse.ArgumentParser, smoke_help: str) -> None:
        """The flags every audited sweep shares (see ``_run_sweep``)."""
        p.add_argument("--smoke", action="store_true", help=smoke_help)
        p.add_argument(
            "--tasks", type=int, default=12,
            help="tasks per generated set (full matrix only)",
        )
        p.add_argument(
            "--replications", type=int, default=1,
            help="instances drawn per matrix cell",
        )
        p.add_argument(
            "--resolution", type=int, default=2_000,
            help="DP capacity quantization units",
        )
        p.add_argument(
            "--verify-parallel", type=int, default=4, metavar="N",
            help="re-run at N workers and require bit-for-bit identical "
            "aggregates (0 = skip)",
        )
        p.add_argument(
            "--out", help="write the aggregate report JSON to PATH"
        )
        p.add_argument("--svg", help="also write a marginals chart to PATH")
        add_workers(p)

    p = sub.add_parser("table1", help="regenerate Table 1 (E1)")
    p.add_argument("--scenario", default="idle")
    p.add_argument("--samples", type=int, default=100)
    add_workers(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("fig2", help="run the case study (E2)")
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--solver", default="dp")
    p.add_argument("--svg", help="also write the figure as SVG to PATH")
    add_workers(p)
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("fig3", help="run the accuracy sweep (E3)")
    p.add_argument("--task-sets", type=int, default=20)
    p.add_argument("--svg", help="also write the figure as SVG to PATH")
    p.add_argument(
        "--resolution", type=int, default=None,
        help="DP capacity-quantization override (default 20000)",
    )
    add_workers(p)
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser("ablation-split", help="A1 split-vs-naive deadlines")
    p.add_argument("--sets", type=int, default=10)
    add_workers(p)
    p.set_defaults(func=_cmd_ablation_split)

    p = sub.add_parser("ablation-solvers", help="A2 MCKP solver comparison")
    p.add_argument("--instances", type=int, default=10)
    add_workers(p)
    p.set_defaults(func=_cmd_ablation_solvers)

    p = sub.add_parser("ablation-pessimism", help="A3 test pessimism")
    p.add_argument("--configs", type=int, default=40)
    add_workers(p)
    p.set_defaults(func=_cmd_ablation_pessimism)

    p = sub.add_parser(
        "ablation-split-policy", help="A4 deadline-split policy comparison"
    )
    p.add_argument("--configs", type=int, default=30)
    p.set_defaults(func=_cmd_ablation_split_policy)

    p = sub.add_parser(
        "ablation-baselines",
        help="A5 compensation vs greedy [8] vs reservation [10]",
    )
    p.add_argument("--horizon", type=float, default=10.0)
    add_workers(p)
    p.set_defaults(func=_cmd_ablation_baselines)

    p = sub.add_parser(
        "adaptive", help="windowed re-estimation recovery run"
    )
    p.add_argument("--scenario", default="not_busy")
    p.add_argument("--windows", type=int, default=5)
    p.add_argument("--window", type=float, default=10.0)
    p.add_argument(
        "--belief-scale", type=float, default=0.4,
        help="initial response-time beliefs = truth x this factor",
    )
    p.set_defaults(func=_cmd_adaptive)

    p = sub.add_parser(
        "energy", help="client energy: offloading vs all-local"
    )
    p.add_argument("--scenario", default="idle")
    p.add_argument("--horizon", type=float, default=10.0)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser(
        "chaos",
        help="fault-injected resilience run (breaker + deadline invariant)",
    )
    from .faults.chaos import FAULT_PROFILES

    p.add_argument("--profile", default="random", choices=FAULT_PROFILES)
    # accepted after the subcommand too (`repro chaos --seed 0`);
    # SUPPRESS keeps the global --seed value when omitted here
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--windows", type=int, default=8)
    p.add_argument("--window", type=float, default=4.0)
    p.add_argument("--scenario", default="idle")
    p.add_argument(
        "--short", action="store_true",
        help="quick smoke run (caps windows at 6 x 2s)",
    )
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "trace",
        help="run with the trace bus on and emit the event log as JSONL",
    )
    p.add_argument("--scenario", default="idle")
    p.add_argument("--solver", default="dp")
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--out", help="write JSONL to PATH instead of stdout")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="run with metrics on and emit the registry snapshot",
    )
    p.add_argument("--scenario", default="idle")
    p.add_argument("--solver", default="dp")
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the snapshot to PATH")
    p.add_argument(
        "--profile", action="store_true",
        help="also print hot-path probe timings",
    )
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "bench",
        help="hot-path performance benchmark (writes BENCH_perf.json)",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizing: fewer instances and repetitions",
    )
    p.add_argument("--out", help="write the JSON report to PATH")
    add_workers(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "serve",
        help="online ODM admission service (binary-framed TCP)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7741)
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument(
        "--max-wait", type=float, default=0.002,
        help="micro-batch linger in seconds",
    )
    p.add_argument("--queue-capacity", type=int, default=256)
    p.add_argument("--resolution", type=int, default=20_000)
    p.add_argument(
        "--duration", type=float, default=None,
        help="exit cleanly after SECONDS even without a shutdown op",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="bursty load + differential audit against the service",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7741)
    p.add_argument(
        "--in-process", action="store_true",
        help="drive an embedded service instead of a TCP one",
    )
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--bursts", type=int, default=30)
    p.add_argument("--burst-size", type=float, default=5.0)
    p.add_argument("--unique-sets", type=int, default=10)
    p.add_argument("--tasks", type=int, default=5)
    p.add_argument("--resolution", type=int, default=20_000)
    p.add_argument(
        "--batch-admit", action="store_true",
        help=(
            "submit each burst as one admit_batch op instead of "
            "per-request admits (TCP mode only)"
        ),
    )
    p.add_argument(
        "--churn", type=float, default=0.0,
        help=(
            "probability a burst perturbs one task weight, creating "
            "near-miss instances for the delta solver (0..1)"
        ),
    )
    _add_scenario_pool_flag(p)
    p.add_argument(
        "--out", help="write the report JSON (BENCH_service.json) to PATH"
    )
    p.add_argument(
        "--shutdown", action="store_true",
        help="send a shutdown op to the TCP service when done",
    )
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser(
        "fleet-campaign",
        help=(
            "multi-replica chaos campaign: failover router + gossip "
            "under replica death (writes BENCH_fleet.json)"
        ),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicas", type=int, default=3)
    p.add_argument("--bursts", type=int, default=30)
    p.add_argument("--burst-size", type=float, default=5.0)
    p.add_argument("--unique-sets", type=int, default=10)
    p.add_argument("--tasks", type=int, default=5)
    p.add_argument(
        "--policy", default="least_loaded",
        choices=("least_loaded", "consistent_hash"),
    )
    p.add_argument(
        "--kill-replica", default="replica-1",
        help="replica killed (and later restarted) mid-campaign",
    )
    p.add_argument(
        "--lossy-link", default="replica-2",
        help="replica whose router link suffers loss + latency chaos",
    )
    p.add_argument(
        "--no-chaos", action="store_true",
        help="disable process and link chaos (baseline fleet run)",
    )
    p.add_argument(
        "--pacing", type=float, default=0.01,
        help="real seconds slept per burst (probe/gossip airtime)",
    )
    p.add_argument("--resolution", type=int, default=20_000)
    _add_scenario_pool_flag(p)
    p.add_argument(
        "--out", help="write the report JSON (BENCH_fleet.json) to PATH"
    )
    p.set_defaults(func=_cmd_fleet_campaign)

    p = sub.add_parser(
        "fleet-scale",
        help=(
            "open-loop replica-count x arrival-rate sweep + warm-vs-"
            "cold restart recovery (writes BENCH_fleet_scale.json)"
        ),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--replicas", type=int, nargs="+", default=[1, 2, 3],
        metavar="N", help="replica counts swept (one fleet per count)",
    )
    p.add_argument(
        "--rates", type=float, nargs="+", default=[1.0, 4.0, 16.0],
        metavar="X", help="arrival-rate multipliers swept per fleet",
    )
    p.add_argument(
        "--requests", type=int, default=96,
        help="open-loop requests per sweep cell",
    )
    p.add_argument("--unique-sets", type=int, default=10)
    p.add_argument("--tasks", type=int, default=5)
    p.add_argument(
        "--churn", type=float, default=0.2,
        help="per-request near-miss perturbation probability (0..1)",
    )
    p.add_argument(
        "--policy", default="least_loaded",
        choices=("least_loaded", "consistent_hash"),
    )
    p.add_argument("--resolution", type=int, default=20_000)
    p.add_argument(
        "--no-cache-tier", action="store_true",
        help="disable cross-replica cache replication (ablation)",
    )
    p.add_argument(
        "--sync-budget", type=int, default=32,
        help="max cache entries shipped per cache_sync pull",
    )
    p.add_argument(
        "--probes", type=int, default=48,
        help="probe burst length of the restart comparison",
    )
    _add_scenario_pool_flag(p)
    p.add_argument(
        "--out",
        help="write the report JSON (BENCH_fleet_scale.json) to PATH",
    )
    p.set_defaults(func=_cmd_fleet_scale)

    p = sub.add_parser(
        "campaign",
        help="run a scenario campaign matrix (schedulability, benefit, "
        "energy, burst miss-rate marginals + differential audit)",
    )
    add_sweep_args(
        p, "16-cell CI miniature instead of the full >=1000-instance matrix"
    )
    p.add_argument(
        "--energy-weight", type=float, default=5.0,
        help="energy term of the blended objective "
        "(benefit weight stays 1.0)",
    )
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "topology-sweep",
        help="run the multi-server topology sweep (routed MCKP over "
        "server count x heterogeneity x link quality + routed "
        "differential audit)",
    )
    add_sweep_args(
        p, "6-cell CI miniature instead of the full 24-cell matrix"
    )
    p.add_argument(
        "--samples", type=int, default=64,
        help="estimator samples per (server, task) pair",
    )
    p.set_defaults(func=_cmd_topology_sweep)

    p = sub.add_parser("demo", help="one end-to-end run with a Gantt chart")
    p.add_argument("--scenario", default="idle")
    p.add_argument("--solver", default="dp")
    p.add_argument("--horizon", type=float, default=10.0)
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
