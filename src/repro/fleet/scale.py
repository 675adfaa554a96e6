"""Sustained open-loop fleet load: replica-count × arrival-rate sweeps.

``repro fleet-scale`` answers the capacity questions the chaos
campaign (:mod:`repro.fleet.campaign`) deliberately doesn't ask:

* **Throughput/latency curves.**  For every ``replica_count ×
  rate_multiplier`` cell, a fresh :class:`Fleet` is booted (replicas +
  gossip + cache tier + failover router; the campaign boots its fleet
  through the same class) and a seeded scaled-Poisson open-loop
  trace (:func:`repro.service.loadgen.run_open_loop`) is fired through
  the router.  Arrival times are fixed before the run, so saturation
  shows up honestly as queueing latency and shed — never as a silently
  slowed generator.  Every non-shed response is audited against the
  serial reference and the router checks exactly-once delivery, so the
  sweep doubles as the proof that the cache tier never changes an
  admission under load.
* **Cache-tier hit attribution.**  Each cell reports where warm
  answers came from: ``hits_local`` (this replica solved it before),
  ``hits_replicated`` (a peer solved it and the tier shipped it), and
  ``delta_repaired`` (near-miss warm-started via the delta solver).
* **Warm-vs-cold restart recovery.**  Two identically seeded arms boot
  a two-replica fleet, drive a warm-up phase, then kill and restart a
  replica.  The *warm* arm lets the cache tier resync the restarted
  replica from its peer before probing; the *cold* arm restarts
  amnesiac.  Both arms then replay the same probe sequence directly
  against the restarted replica, measuring post-restart cache hit rate
  and the time until latency returns to the pre-kill steady p99.

Results land in ``BENCH_fleet_scale.json``.
"""

from __future__ import annotations

import asyncio
import gc
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..faults.process import LinkChaos, ReplicaProcess
from ..observability import Observability
from ..observability.metrics import percentile
from ..service.batching import BatchPolicy
from ..service.loadgen import (
    OpenLoopConfig,
    OpenLoopReport,
    ResponseTally,
    generate_open_loop,
    run_open_loop,
)
from ..service.server import ODMService, ServiceClient
from ..sim.rng import derive_seed
from .cachetier import CacheReplicator, CacheTierConfig, warm_from_peer
from .gossip import GossipAgent
from .membership import ReplicaSpec
from .router import FleetRouter, RouterConfig

__all__ = [
    "FleetScaleConfig",
    "FleetScaleReport",
    "run_fleet_scale",
]


#: router tunables of the sweep fleets; no hedging, so every latency
#: is one replica's answer
REQUEST_TIMEOUT = 10.0
MAX_ATTEMPTS = 3
PROBE_INTERVAL = 0.05
GOSSIP_INTERVAL = 0.02
#: max explicit ``cache_sync`` pulls the restarted warm replica may
#: issue (the loop stops early once a pull comes back dry)
WARM_SYNC_ROUNDS = 8
#: a probe is "recovered" once its latency is within this factor of
#: the replica's own calibrated steady-state burst p99
STEADY_MARGIN = 1.5


@dataclass(frozen=True)
class FleetScaleConfig:
    """Knobs of one reproducible fleet-scale sweep."""

    seed: int = 0
    replica_counts: Tuple[int, ...] = (1, 2, 3)
    #: multipliers of the open-loop base rate (see OpenLoopConfig)
    rate_multipliers: Tuple[float, ...] = (1.0, 4.0, 16.0)
    requests_per_cell: int = 96
    churn_rate: float = 0.2
    unique_sets: int = 10
    num_tasks: int = 5
    policy: str = "least_loaded"
    resolution: int = 20_000
    cache_tier: bool = True
    tier: CacheTierConfig = field(default_factory=CacheTierConfig)
    #: probe sequence length of the restart comparison
    restart_probes: int = 48
    #: tasks per request in the restart arms only.  Heavier than the
    #: sweep cells on purpose: scratch-solve cost grows super-linearly
    #: with task count, so a cold replica's re-solve work dominates
    #: the burst's scheduling-noise floor and the warm-vs-cold
    #: recovery gap stays measurable run over run (but stays below
    #: the task count where equal-value DP ties start to diverge from
    #: the audit's reference solver on the seeded trace)
    restart_num_tasks: int = 20

    def __post_init__(self) -> None:
        if not self.replica_counts or min(self.replica_counts) < 1:
            raise ValueError("replica_counts must be positive")
        if not self.rate_multipliers or min(self.rate_multipliers) <= 0:
            raise ValueError("rate_multipliers must be positive")
        if self.requests_per_cell < 1:
            raise ValueError("requests_per_cell must be >= 1")
        if self.restart_probes < 1:
            raise ValueError("restart_probes must be >= 1")
        if self.restart_num_tasks < 1:
            raise ValueError("restart_num_tasks must be >= 1")

    def cell_load(self, replicas: int, multiplier: float) -> OpenLoopConfig:
        """The seeded open-loop trace of one sweep cell."""
        return OpenLoopConfig(
            seed=derive_seed(
                self.seed, f"cell-{replicas}x{multiplier:g}"
            ),
            rate_multiplier=multiplier,
            requests=self.requests_per_cell,
            unique_sets=self.unique_sets,
            num_tasks=self.num_tasks,
            churn_rate=self.churn_rate,
        )

    def fleet(self, replicas: int, cache_tier: bool, salt: str) -> "Fleet":
        """A sweep fleet; ``salt`` seeds its router apart from others."""
        return Fleet(
            replicas,
            RouterConfig(
                policy=self.policy,
                request_timeout=REQUEST_TIMEOUT,
                max_attempts=MAX_ATTEMPTS,
                probe_interval=PROBE_INTERVAL,
                seed=derive_seed(self.seed, f"router-{salt}"),
            ),
            resolution=self.resolution,
            gossip_interval=GOSSIP_INTERVAL,
            # max_wait is kept tiny: a large batching latency floor
            # would swamp the cache-hit vs scratch-solve gap the
            # restart comparison measures (backlog, not the timer,
            # forms batches under sustained load anyway)
            max_wait=0.0002,
            cache_tier=cache_tier,
            tier=self.tier,
        )


@dataclass
class FleetScaleReport:
    """The sweep's curves plus the restart comparison."""

    cells: List[Dict[str, object]] = field(default_factory=list)
    restart: Dict[str, object] = field(default_factory=dict)
    anomaly_count: int = 0
    duplicate_deliveries: int = 0
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Zero violations, zero double deliveries, warm beat cold."""
        return (
            self.anomaly_count == 0
            and self.duplicate_deliveries == 0
            and bool(self.restart.get("warm_better", False))
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "cells": list(self.cells),
            "restart_comparison": dict(self.restart),
            "anomaly_count": self.anomaly_count,
            "duplicate_deliveries": self.duplicate_deliveries,
            "ok": self.ok,
            "wall_seconds": self.wall_seconds,
        }


class Fleet:
    """One booted fleet: replicas + gossip (+ cache tier) + router.

    The only code that boots replicas, their gossip agents and the
    router: the scale sweep, its restart arms and the chaos campaign
    (:mod:`repro.fleet.campaign`) all run on it.  ``router`` carries
    the harness's routing tunables and seed; ``max_wait`` is the
    replicas' batching timer.
    """

    def __init__(
        self,
        replicas: int,
        router: RouterConfig,
        *,
        resolution: int,
        gossip_interval: float,
        max_wait: float,
        cache_tier: bool = True,
        tier: Optional[CacheTierConfig] = None,
        observability: Optional[Observability] = None,
        link_chaos: Optional[LinkChaos] = None,
    ) -> None:
        self.replica_ids = [f"replica-{i}" for i in range(replicas)]
        self.router_config = router
        self.resolution = resolution
        self.gossip_interval = gossip_interval
        self.max_wait = max_wait
        self.cache_tier = cache_tier
        self.tier = tier
        self.observability = observability or Observability.disabled()
        self.link_chaos = link_chaos
        self.procs: Dict[str, ReplicaProcess] = {}
        self.agents: Dict[str, GossipAgent] = {}
        self.router: Optional[FleetRouter] = None

    def _factory(self, replica_id: str) -> ODMService:
        # the breaker tunables only matter where a harness feeds
        # outcome evidence (the campaign's observer replica)
        return ODMService(
            replica_id=replica_id,
            batch_policy=BatchPolicy(
                max_batch=8, max_wait=self.max_wait, queue_capacity=64
            ),
            breaker_kwargs={"min_samples": 3, "cooldown_windows": 1},
            resolution=self.resolution,
        )

    async def start_agent(self, replica_id: str) -> GossipAgent:
        proc = self.procs[replica_id]
        assert proc.service is not None
        replicator = None
        if self.cache_tier:
            replicator = CacheReplicator(proc.service.cache, self.tier)
        agent = GossipAgent(
            proc.service,
            peers={
                rid: p.address for rid, p in self.procs.items()
            },
            interval=self.gossip_interval,
            replicator=replicator,
        )
        self.agents[replica_id] = await agent.start()
        return agent

    async def kill(self, replica_id: str) -> None:
        """Stop the replica's gossip agent, then kill the replica."""
        agent = self.agents.pop(replica_id, None)
        if agent is not None:
            await agent.stop()
        await self.procs[replica_id].kill()

    async def restart(self, replica_id: str) -> None:
        """Restart a killed replica (amnesiac) and rejoin gossip."""
        await self.procs[replica_id].restart()
        await self.start_agent(replica_id)

    async def __aenter__(self) -> "Fleet":
        for replica_id in self.replica_ids:
            proc = ReplicaProcess(
                replica_id,
                lambda rid=replica_id: self._factory(rid),
            )
            self.procs[replica_id] = proc
            await proc.start()
        for replica_id in self.replica_ids:
            await self.start_agent(replica_id)
        self.router = FleetRouter(
            [
                ReplicaSpec(rid, proc.host, proc.port)
                for rid, proc in sorted(self.procs.items())
            ],
            self.router_config,
            observability=self.observability,
            link_chaos=self.link_chaos,
        )
        await self.router.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        for agent in self.agents.values():
            await agent.stop()
        self.agents.clear()
        if self.router is not None:
            await self.router.stop()
        for proc in self.procs.values():
            await proc.stop()

    def cache_attribution(self) -> Dict[str, int]:
        """Fleet-wide warm-answer attribution, summed over replicas."""
        totals = {
            "hits_local": 0,
            "hits_replicated": 0,
            "delta_repaired": 0,
            "misses": 0,
            "replicated_in": 0,
            "replicated_states_in": 0,
        }
        for proc in self.procs.values():
            service = proc.service
            if not proc.running or service is None:
                continue
            stats = service.cache.stats
            totals["hits_local"] += stats["hits_local"]
            totals["hits_replicated"] += stats["hits_replicated"]
            totals["misses"] += stats["misses"]
            totals["replicated_in"] += stats["replicated_in"]
            totals["replicated_states_in"] += stats["replicated_states_in"]
            totals["delta_repaired"] += service.shard_solver.delta_solves
        return totals


async def _run_cell(
    config: FleetScaleConfig,
    replicas: int,
    multiplier: float,
    pool=None,
) -> Dict[str, object]:
    load = config.cell_load(replicas, multiplier)
    async with config.fleet(
        replicas, config.cache_tier, f"{replicas}x{multiplier:g}"
    ) as fleet:
        assert fleet.router is not None
        report: OpenLoopReport = await run_open_loop(
            fleet.router.submit,
            load,
            resolution=config.resolution,
            pool=pool,
        )
        attribution = fleet.cache_attribution()
        duplicates = fleet.router.duplicate_deliveries
    cell = report.to_dict()
    cell.pop("stats", None)
    cell.update(
        {
            "replicas": replicas,
            "rate_multiplier": multiplier,
            "duplicate_deliveries": duplicates,
            "cache_attribution": attribution,
        }
    )
    return cell


def _time_back_to_steady(
    latencies: List[float], threshold: float
) -> float:
    """Wall seconds from probe dispatch until steady-state latency.

    The probe burst dispatches every request at once, so each latency
    is also that response's completion offset from the burst start.
    Recovery time is the completion of the *last* response slower than
    ``threshold`` — 0.0 when every response already ran at steady-state
    speed.
    """
    return max(
        (latency for latency in latencies if latency > threshold),
        default=0.0,
    )


async def _run_restart_arm(
    config: FleetScaleConfig, warm: bool
) -> Dict[str, object]:
    """One arm of the warm-vs-cold comparison (identical seeds)."""
    replicas = max(2, min(config.replica_counts))
    load = OpenLoopConfig(
        seed=derive_seed(config.seed, "restart-warmup"),
        requests=config.requests_per_cell,
        unique_sets=config.unique_sets,
        num_tasks=config.restart_num_tasks,
        churn_rate=config.churn_rate,
    )
    # the probe replays warm-up requests verbatim (fresh ids so dedup
    # stays out of the measurement): every probe instance was solved
    # fleet-side during warm-up, so a warm cache answers from
    # replicated entries while a cold one re-solves from scratch
    warmup_trace = generate_open_loop(load)
    probes = [
        replace(
            warmup_trace[index % len(warmup_trace)][1],
            request_id=f"probe-{index:06d}",
        )
        for index in range(config.restart_probes)
    ]
    target = "replica-1"
    arm: Dict[str, object] = {"warm": warm}
    async with config.fleet(
        replicas, warm, f"restart-{'warm' if warm else 'cold'}"
    ) as fleet:
        assert fleet.router is not None
        warmup = await run_open_loop(
            fleet.router.submit, load, resolution=config.resolution
        )
        steady_p99 = percentile(warmup.latencies, 99)

        # amnesiac restart of the target replica, kept out of gossip
        # so the explicit pulls below are the only warming it gets
        await fleet.kill(target)
        await fleet.procs[target].restart()
        restarted = fleet.procs[target].service
        assert restarted is not None

        sync_totals = {"pulls": 0, "entries": 0, "states": 0}
        if warm:
            # the restart path: explicit ``cache_sync`` pulls against
            # the surviving peer until a pull comes back dry — the
            # responder clamps each pull to its own budget, so deep
            # warming is a short loop, not one huge transfer
            peer = fleet.procs["replica-0"]
            client = await ServiceClient(
                peer.host, peer.port
            ).connect()
            try:
                for _ in range(WARM_SYNC_ROUNDS):
                    # wait_for: client calls carry no default timeout,
                    # so a stalled peer would otherwise hang the arm
                    counts = await asyncio.wait_for(
                        warm_from_peer(
                            restarted.cache, client, config.tier
                        ),
                        timeout=REQUEST_TIMEOUT,
                    )
                    sync_totals["pulls"] += 1
                    sync_totals["entries"] += counts["entries"]
                    sync_totals["states"] += counts["states"]
                    if counts["entries"] == 0:
                        break
            finally:
                await client.close()

        # quiesce every background loop (remaining gossip agents and
        # the router's probe loop) so the probe bursts measure the
        # restarted replica alone, not whatever gossip traffic happens
        # to land mid-burst
        for other in list(fleet.agents.values()):
            await other.stop()
        await fleet.router.stop()

        cache = restarted.cache
        hits_before = cache.hits
        lookups_before = cache.hits + cache.misses
        loop = asyncio.get_running_loop()

        async def burst(tag: str) -> Tuple[List[float], List]:
            """Dispatch every probe at once (fresh ids per pass).

            The concurrent burst makes the cold replica's extra
            scratch-solve work *compound* through the queue: each miss
            delays every response batched behind it, so the per-solve
            cost difference amplifies into a tail-latency difference
            well above scheduling noise.
            """
            latencies: List[float] = [0.0] * len(probes)
            responses: List = [None] * len(probes)

            async def fire(index: int, request) -> None:
                began = loop.time()
                responses[index] = await restarted.submit(
                    replace(request, request_id=f"{tag}-{index:06d}")
                )
                latencies[index] = loop.time() - began

            # GC-deterministic window: when the arm runs after the
            # full sweep, a generational collection over the sweep's
            # debris can land inside one burst but not the other,
            # inflating whichever p99 it hits by more than the whole
            # recovery signal.  Collect up front, then keep the
            # collector out of the timed region.
            gc.collect()
            gc.disable()
            try:
                await asyncio.gather(
                    *(
                        fire(index, request)
                        for index, request in enumerate(probes)
                    )
                )
            finally:
                gc.enable()
            return latencies, responses

        latencies, responses = await burst("probe")
        probe_tally = ResponseTally()
        for request, response, latency in zip(probes, responses, latencies):
            probe_tally.record(request, response, latency, config.resolution)
        hits_after = cache.hits
        lookups = cache.hits + cache.misses - lookups_before

        # steady-state calibration: replay the same burst once more —
        # after the first pass the replica is warm in BOTH arms, so
        # this pass measures the replica's own steady-state burst
        # latency and the recovery threshold needs no absolute
        # wall-clock constant
        steady, _ = await burst("steady")
        local_steady_p99 = percentile(steady, 99)

        arm.update(
            {
                "fleet_steady_p99": steady_p99,
                "steady_p99": local_steady_p99,
                "warmup_anomalies": warmup.anomaly_count,
                "probe_anomalies": probe_tally.anomaly_count,
                "duplicate_deliveries": fleet.router.duplicate_deliveries,
                "post_restart_hit_rate": (
                    (hits_after - hits_before) / lookups
                    if lookups
                    else 0.0
                ),
                "replicated_in": cache.replicated_in,
                "sync": sync_totals,
                "probe_p50": percentile(latencies, 50),
                "probe_p99": percentile(latencies, 99),
                "time_back_to_steady_p99": _time_back_to_steady(
                    latencies, STEADY_MARGIN * local_steady_p99
                ),
            }
        )
    return arm


async def run_fleet_scale(
    config: FleetScaleConfig, pool=None
) -> FleetScaleReport:
    """Run the full sweep + restart comparison; returns the report.

    ``pool`` is accepted for CLI symmetry but applies only to the
    sweep cells' traces (the restart arms keep the built-in pool so
    both arms stay bit-identically seeded).
    """
    started = perf_counter()
    report = FleetScaleReport()
    for replicas in config.replica_counts:
        for multiplier in config.rate_multipliers:
            cell = await _run_cell(
                config, replicas, multiplier, pool=pool
            )
            report.cells.append(cell)
            report.anomaly_count += int(cell["anomaly_count"])
            report.duplicate_deliveries += int(
                cell["duplicate_deliveries"]
            )

    warm = await _run_restart_arm(config, warm=True)
    cold = await _run_restart_arm(config, warm=False)
    for arm in (warm, cold):
        report.anomaly_count += int(arm["warmup_anomalies"])
        report.anomaly_count += int(arm["probe_anomalies"])
        report.duplicate_deliveries += int(arm["duplicate_deliveries"])
    warm_better = (
        warm["post_restart_hit_rate"] > cold["post_restart_hit_rate"]
        and warm["time_back_to_steady_p99"]
        < cold["time_back_to_steady_p99"]
    )
    report.restart = {
        "replicas": max(2, min(config.replica_counts)),
        "probes": config.restart_probes,
        "warm": warm,
        "cold": cold,
        "warm_better": warm_better,
    }
    report.wall_seconds = perf_counter() - started
    return report
