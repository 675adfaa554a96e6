"""The ``sim-soak`` workload: split-deadline EDF over long horizons.

Seeded 30-task §6.2 task sets (``paper_simulation_task_set``) are each
decided once by the ODM during set-up and then simulated through
:class:`~repro.runtime.OffloadingSystem` on the ``busy`` server
scenario, one set after another, until the run's time is up.  The
simulator, scheduler and GPU-server model do the work; the knapsack
runs once per set and the service not at all.

The horizon is long on purpose: the busy scenario offers the GPUs more
work than they can do, so the backlog grows with simulated time and
host cost grows faster than linearly with it.

The paper's promise is checked on every set: no hard deadline missed.
"""

from __future__ import annotations

import resource
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.schedulability import theorem3_test
from repro.runtime.system import OffloadingSystem
from repro.sim.rng import RandomStreams
from repro.workloads.generator import paper_simulation_task_set

import layers
import stats
import tracing

#: simulated seconds per task set
HORIZON = 30.0
#: task sets decided in set-up (the timed phase cycles through them)
SETS = 256
#: set-ups timed per run; the last one's systems are simulated
SETUP_REPEATS = 3
#: leading sets covered by the printed digest and the traced sched counts
DIGEST_PREFIX = 8


def make_systems(seed: int) -> List[OffloadingSystem]:
    """Generate the run's task sets and decide each once (the set-up)."""
    streams = RandomStreams(seed=seed)
    sets_rng, sims_rng = streams.get("workloads"), streams.get("sims")
    systems = []
    for _ in range(SETS):
        system = OffloadingSystem(
            paper_simulation_task_set(sets_rng),
            scenario="busy",
            seed=int(sims_rng.integers(2**31)),
        )
        system.decide()
        systems.append(system)
    return systems


def set_stats(report) -> Tuple:
    """What one soak produced, compared across commits and runs."""
    return (
        len(report.trace.jobs),
        report.jobs_completed,
        report.offloaded_jobs,
        report.returned_jobs,
        report.compensated_jobs,
        report.deadline_misses,
        report.realized_benefit,
    )


def _decision_problem(index: int, system: OffloadingSystem) -> Optional[str]:
    decision = system.decide()
    if theorem3_test(system.tasks, decision.assignments()).feasible:
        return None
    return f"set {index}: ODM decision fails Theorem 3"


def run(name: str, seed: int, seconds: float,
        traced: bool) -> Dict[str, object]:
    rec = tracing.Recorder()
    setups: List[float] = []
    for repeat in range(SETUP_REPEATS):
        if traced and repeat == SETUP_REPEATS - 1:
            layers.install_sim(rec)
        try:
            started = perf_counter()
            systems = make_systems(seed)
            setups.append(perf_counter() - started)
        finally:
            rec.unpatch_all()
    decide = tracing.self_times(rec.spans).get("odm.decide", (0, 0.0, 0.0))
    rec.clear()
    problems = [
        p for p in (_decision_problem(i, s) for i, s in enumerate(systems))
        if p
    ]

    rows: List[Tuple[int, Tuple, float]] = []
    traced_rows: List[Tuple[int, Tuple, float]] = []
    deadline = perf_counter() + seconds
    index = 0
    while perf_counter() < deadline:
        system = systems[index % SETS]
        started = perf_counter()
        report = system.run(horizon=HORIZON)
        rows.append((index, set_stats(report), perf_counter() - started))
        if traced:
            layers.install_sim(rec)
            try:
                with rec.region("soak.set"):
                    started = perf_counter()
                    report = system.run(horizon=HORIZON)
                    ended = perf_counter()
            finally:
                rec.unpatch_all()
            traced_rows.append((index, set_stats(report), ended - started))
            if traced_rows[-1][1] != rows[-1][1]:
                problems.append(f"set {index}: traced run differs")
        index += 1

    done = rows + traced_rows
    misses = sum(row[5] for _, row, _ in done)
    outcome = stats.Outcome(
        attempted=sum(row[0] for _, row, _ in done),
        anomalies=misses + len(problems),
    )
    if misses:
        problems.append(f"{misses} hard-deadline misses")

    def jobs_per_s(sample) -> float:
        busy = sum(took for _, _, took in sample)
        good = sum(row[1] - row[5] for _, row, _ in sample)
        return good / busy if busy > 0 else 0.0

    latency = stats.latency_summary([took for _, _, took in rows])
    per_layer: Dict[str, float] = {}
    if traced:
        # over a fixed prefix of sets, so the counts compare exactly
        # across commits however many sets a run gets through
        leading = [row for i, row, _ in traced_rows if i < DIGEST_PREFIX]
        sched = {
            "released": sum(r[0] for r in leading),
            "offloaded": sum(r[2] for r in leading),
            "returned": sum(r[3] for r in leading),
            "compensated": sum(r[4] for r in leading),
        }
        per_layer = layers.sim_metrics(rec, sched)
        sets = [(s, e) for n, s, e, *_ in rec.spans if n == "soak.set"]
        runs = [(s, e) for n, s, e, *_ in rec.spans if n == "sim.run"]
        plain = jobs_per_s(rows)
        per_layer.update({
            "odm.decide_ms": decide[1] / decide[0] * 1e3 if decide[0] else 0.0,
            "trace.requests": len(traced_rows),
            "trace.overhead_frac": (
                1.0 - jobs_per_s(traced_rows) / plain if plain else 0.0
            ),
            "trace.coverage_frac": stats.median([
                tracing.union_length(runs, start, end) / (end - start)
                for start, end in sets
            ]),
        })
    totals = [sum(row[k] for _, row, _ in rows) for k in range(7)]
    info = {
        "digest": f"{stats.digest(row for i, row, _ in rows if i < DIGEST_PREFIX)}"
                  f" (first {DIGEST_PREFIX} sets)",
        "sets": len(rows),
        "jobs_per_s": jobs_per_s(rows),
        "simulated": (
            f"jobs={totals[1]} offloaded={totals[2]} returned={totals[3]} "
            f"compensated={totals[4]} misses={totals[5]} "
            f"benefit={totals[6]:.4f}"
        ),
        "latency_samples": latency["n"],
        "failed_frac": outcome.failed_frac,
        "anomalies": outcome.anomalies,
        "setup_samples_s": [round(s, 4) for s in setups],
    }
    if traced:
        info["self_ms_per_set"] = tracing.self_time_summary(
            rec.spans, len(traced_rows))
    return {
        "outcome": outcome,
        "problems": problems,
        "end_to_end": {
            "setup_s": stats.median(setups),
            "goodput_per_s": jobs_per_s(rows),
            "p50_ms": latency["p50_ms"],
            "p99_ms": latency["p99_ms"],
            "rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "per_layer": per_layer,
        "info": info,
    }
