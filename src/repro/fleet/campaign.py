"""The fleet chaos campaign: seeded load + replica death + full audit.

``repro fleet-campaign`` boots N supervised replicas
(:class:`~repro.faults.process.ReplicaProcess`), fronts them with a
:class:`~repro.fleet.router.FleetRouter`, starts replica-to-replica
gossip (:class:`~repro.fleet.gossip.GossipAgent`), and drives the same
deterministic burst trace as ``repro loadgen`` through the router while
a :class:`~repro.faults.process.FleetChaosSchedule` kills and restarts
replicas mid-run and :class:`~repro.faults.process.LinkChaos` injects
loss and latency on router→replica links.

Every response that comes back is audited against the offline ground
truth (:func:`repro.service.audit.audit_response` — Theorem 3, exact
bit-identity, degraded admissibility agreement), and the router checks
that no request id is ever *delivered* two different decisions, so the
report's ``ok`` means: total replica death, restart amnesia, link loss
and hedged duplicates together produced **zero** guarantee violations.

The report (``BENCH_fleet.json``) records fleet p50/p99 latency, shed
rate, failover/retry/hedge counts and observed down→up recovery times.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..faults.injectors import FaultEvent, FaultSchedule
from ..faults.process import (
    FleetChaosSchedule,
    LinkChaos,
    ReplicaProcess,
)
from ..observability import Observability
from ..observability.metrics import percentile
from ..service.audit import audit_response
from ..service.batching import BatchPolicy
from ..service.loadgen import LoadGenConfig, generate_bursts
from ..service.server import ODMService
from ..sim.rng import RandomStreams, derive_seed
from .cachetier import CacheReplicator
from .gossip import GossipAgent
from .membership import ReplicaSpec
from .router import FleetRouter, FleetUnavailable, RouterConfig

__all__ = [
    "FleetCampaignConfig",
    "FleetCampaignReport",
    "run_fleet_campaign",
]


@dataclass(frozen=True)
class FleetCampaignConfig:
    """Knobs of one reproducible fleet chaos campaign.

    The virtual timeline is the burst trace of ``load`` (one
    ``mean_burst_gap`` per burst); chaos fractions are positions on
    that timeline.  ``observer`` is the replica that receives the
    synthesized offload-outcome evidence — its breaker for the
    degraded server opens first and must then *gossip* open on the
    other replicas (their breakers trip remotely, without local
    evidence).  The kill target must therefore differ from the
    observer.
    """

    seed: int = 0
    replicas: int = 3
    load: LoadGenConfig = field(default_factory=LoadGenConfig)
    policy: str = "least_loaded"
    request_timeout: float = 5.0
    max_attempts: int = 4
    hedge_after: Optional[float] = 0.25
    probe_interval: float = 0.03
    gossip_interval: float = 0.03
    #: replica killed / restarted on the virtual timeline (fractions of
    #: the horizon); ``kill_replica=None`` disables process chaos
    kill_replica: Optional[str] = "replica-1"
    kill_at_fraction: float = 1.0 / 3.0
    restart_at_fraction: float = 2.0 / 3.0
    #: replica whose router link suffers loss + latency chaos
    #: (``None`` disables link chaos)
    lossy_link: Optional[str] = "replica-2"
    link_loss_probability: float = 0.3
    link_spike_seconds: float = 0.01
    observer: str = "replica-0"
    #: real seconds slept per burst so probe/gossip loops get airtime
    pacing: float = 0.01
    resolution: int = 20_000
    queue_capacity: int = 64
    #: warm-replicate hot solver-cache entries between replicas during
    #: gossip (:mod:`repro.fleet.cachetier`); the campaign's per-response
    #: audit then doubles as the proof that replication never changes
    #: an admission
    cache_tier: bool = True

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        ids = self.replica_ids()
        if self.observer not in ids:
            raise ValueError(
                f"observer {self.observer!r} not in fleet {ids}"
            )
        if self.kill_replica is not None:
            if self.kill_replica not in ids:
                raise ValueError(
                    f"kill_replica {self.kill_replica!r} "
                    f"not in fleet {ids}"
                )
            if self.kill_replica == self.observer:
                raise ValueError(
                    "kill_replica must differ from the observer "
                    "(the outcome-evidence sink must survive)"
                )
            if not 0.0 < self.kill_at_fraction < self.restart_at_fraction <= 1.0:
                raise ValueError(
                    "need 0 < kill_at_fraction < restart_at_fraction <= 1"
                )
        if self.lossy_link is not None and self.lossy_link not in ids:
            raise ValueError(
                f"lossy_link {self.lossy_link!r} not in fleet {ids}"
            )
        if not 0.0 <= self.link_loss_probability <= 1.0:
            raise ValueError("link_loss_probability must be in [0, 1]")
        if self.pacing < 0:
            raise ValueError("pacing must be non-negative")

    def replica_ids(self) -> Tuple[str, ...]:
        return tuple(f"replica-{i}" for i in range(self.replicas))

    @property
    def horizon(self) -> float:
        return self.load.bursts * self.load.mean_burst_gap

    def chaos_schedule(self) -> FleetChaosSchedule:
        """Kill/restart actions + link faults on the virtual timeline."""
        link_faults: Dict[str, FaultSchedule] = {}
        if self.lossy_link is not None:
            # loss burst over the second quarter, latency storm over
            # the fourth — chaos that overlaps neither the kill window
            # edge cases nor each other
            quarter = self.horizon / 4.0
            link_faults[self.lossy_link] = FaultSchedule(
                [
                    FaultEvent(
                        "drop",
                        start=quarter,
                        duration=quarter,
                        magnitude=self.link_loss_probability,
                        label="loss-burst",
                    ),
                    FaultEvent(
                        "latency_spike",
                        start=3.0 * quarter,
                        duration=quarter,
                        magnitude=self.link_spike_seconds,
                        label="latency-storm",
                    ),
                ]
            )
        if self.kill_replica is None:
            return FleetChaosSchedule(link_faults=link_faults)
        return FleetChaosSchedule.kill_restart(
            self.kill_replica,
            kill_at=self.kill_at_fraction * self.horizon,
            restart_at=self.restart_at_fraction * self.horizon,
            link_faults=link_faults,
        )


class _VirtualClock:
    """The campaign's burst-timeline clock (drives LinkChaos windows)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@dataclass
class FleetCampaignReport:
    """What the campaign did, suffered, and proved."""

    requests: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    unrouted: int = 0
    bursts: int = 0
    rungs_seen: Dict[str, int] = field(default_factory=dict)
    served_by: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    anomalies: List[str] = field(default_factory=list)
    anomaly_count: int = 0
    duplicate_deliveries: int = 0
    dedup_hits: int = 0
    breaker_opened: bool = False
    breaker_reclosed: bool = False
    remote_trips: Dict[str, int] = field(default_factory=dict)
    chaos_events: List[Dict[str, object]] = field(default_factory=list)
    recovery_times: Dict[str, List[float]] = field(default_factory=dict)
    link_chaos: Dict[str, Dict[str, float]] = field(default_factory=dict)
    router: Dict[str, object] = field(default_factory=dict)
    replicas: Dict[str, Dict[str, object]] = field(default_factory=dict)
    gossip: Dict[str, Dict[str, object]] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Zero guarantee violations, zero double-delivered decisions."""
        return self.anomaly_count == 0 and self.duplicate_deliveries == 0

    @property
    def all_recoveries(self) -> List[float]:
        return [
            seconds
            for times in self.recovery_times.values()
            for seconds in times
        ]

    def to_dict(self) -> Dict[str, object]:
        recoveries = self.all_recoveries
        return {
            "requests": self.requests,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "unrouted": self.unrouted,
            "shed_rate": self.shed / self.requests if self.requests else 0.0,
            "bursts": self.bursts,
            "rungs_seen": dict(self.rungs_seen),
            "served_by": dict(self.served_by),
            "latency": {
                "fleet_p50": percentile(self.latencies, 50),
                "fleet_p99": percentile(self.latencies, 99),
            },
            "anomaly_count": self.anomaly_count,
            "anomalies": list(self.anomalies),
            "duplicate_deliveries": self.duplicate_deliveries,
            "dedup_hits": self.dedup_hits,
            "ok": self.ok,
            "breaker_opened": self.breaker_opened,
            "breaker_reclosed": self.breaker_reclosed,
            "remote_trips": dict(self.remote_trips),
            "chaos_events": list(self.chaos_events),
            "recovery": {
                "times": dict(self.recovery_times),
                "count": len(recoveries),
                "max_seconds": max(recoveries, default=0.0),
                "mean_seconds": (
                    sum(recoveries) / len(recoveries) if recoveries else 0.0
                ),
            },
            "link_chaos": dict(self.link_chaos),
            "router": dict(self.router),
            "replicas": dict(self.replicas),
            "gossip": dict(self.gossip),
            "wall_seconds": self.wall_seconds,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


async def run_fleet_campaign(
    config: FleetCampaignConfig,
    observability: Optional[Observability] = None,
    pool=None,
) -> FleetCampaignReport:
    """Run the full chaos campaign; returns the audited report.

    ``pool`` optionally supplies the task-set pool for the burst trace
    (see :func:`repro.service.loadgen.generate_bursts`), letting the
    CLI feed scenario-matrix workloads through the fleet.
    """
    obs = (
        observability
        if observability is not None
        else Observability.disabled()
    )
    load = config.load
    bursts = generate_bursts(load, pool=pool)
    schedule = config.chaos_schedule()
    clock = _VirtualClock()
    streams = RandomStreams(seed=derive_seed(config.seed, "fleet"))
    started = perf_counter()
    report = FleetCampaignReport(bursts=len(bursts))

    def factory(replica_id: str) -> ODMService:
        return ODMService(
            workers=1,
            replica_id=replica_id,
            batch_policy=BatchPolicy(
                max_batch=8,
                max_wait=0.002,
                queue_capacity=config.queue_capacity,
            ),
            breaker_kwargs={"min_samples": 3, "cooldown_windows": 1},
            resolution=config.resolution,
        )

    procs: Dict[str, ReplicaProcess] = {}
    agents: Dict[str, GossipAgent] = {}

    def addresses() -> Dict[str, Tuple[str, int]]:
        return {rid: proc.address for rid, proc in procs.items()}

    async def start_agent(replica_id: str) -> None:
        proc = procs[replica_id]
        assert proc.service is not None
        replicator = None
        if config.cache_tier and proc.service.cache is not None:
            replicator = CacheReplicator(proc.service.cache)
        agent = GossipAgent(
            proc.service,
            peers=addresses(),
            interval=config.gossip_interval,
            replicator=replicator,
        )
        agents[replica_id] = await agent.start()

    for replica_id in config.replica_ids():
        proc = ReplicaProcess(
            replica_id, lambda rid=replica_id: factory(rid)
        )
        procs[replica_id] = proc
        await proc.start()
    for replica_id in config.replica_ids():
        await start_agent(replica_id)

    link_chaos = (
        LinkChaos(
            schedule.link_faults,
            rng=streams.get("link-chaos"),
            clock=clock,
        )
        if schedule.link_faults
        else None
    )
    router = FleetRouter(
        [
            ReplicaSpec(rid, proc.host, proc.port)
            for rid, proc in sorted(procs.items())
        ],
        RouterConfig(
            policy=config.policy,
            request_timeout=config.request_timeout,
            max_attempts=config.max_attempts,
            hedge_after=config.hedge_after,
            probe_interval=config.probe_interval,
            seed=derive_seed(config.seed, "router"),
        ),
        observability=obs,
        link_chaos=link_chaos,
    )
    await router.start()

    async def apply_chaos(now: float) -> None:
        for action in schedule.due(now):
            proc = procs[action.target]
            wall = perf_counter() - started
            if action.action == "kill":
                agent = agents.pop(action.target, None)
                if agent is not None:
                    await agent.stop()
                await proc.kill()
            else:
                await proc.restart()
                await start_agent(action.target)
            report.chaos_events.append(
                {
                    "at": action.at,
                    "action": action.action,
                    "target": action.target,
                    "wall_seconds": wall,
                }
            )
            if obs.bus.enabled:
                obs.bus.emit(
                    f"fleet.{action.action}",
                    now,
                    replica=action.target,
                )

    def observer_service() -> Optional[ODMService]:
        proc = procs.get(config.observer)
        if proc is None or not proc.running:
            return None
        return proc.service

    try:
        for index, burst in enumerate(bursts):
            clock.now = burst.time
            await apply_chaos(burst.time)
            outcomes = await asyncio.gather(
                *(router.submit(request) for request in burst.requests),
                return_exceptions=True,
            )
            responses = []
            for request, outcome in zip(burst.requests, outcomes):
                report.requests += 1
                if isinstance(outcome, BaseException):
                    if not isinstance(outcome, FleetUnavailable):
                        raise outcome
                    report.unrouted += 1
                    continue
                responses.append(outcome)
                if outcome.status == "admitted":
                    report.admitted += 1
                elif outcome.status == "rejected":
                    report.rejected += 1
                else:
                    report.shed += 1
                rung = outcome.degradation
                report.rungs_seen[rung] = (
                    report.rungs_seen.get(rung, 0) + 1
                )
                served = outcome.replica or "?"
                report.served_by[served] = (
                    report.served_by.get(served, 0) + 1
                )
                if outcome.status != "shed":
                    report.latencies.append(outcome.latency)
                anomalies = audit_response(
                    request, outcome, config.resolution
                )
                report.anomaly_count += len(anomalies)
                remaining = 32 - len(report.anomalies)
                if remaining > 0:
                    report.anomalies.extend(anomalies[:remaining])

            # synthesized offload outcomes land on the observer only;
            # the other replicas must learn about the degraded server
            # exclusively through gossip
            observer = observer_service()
            if observer is not None:
                for server in load.servers:
                    ok = not (
                        burst.degraded and server == load.degraded_server
                    )
                    for _ in range(load.probes_per_burst):
                        observer.record_outcome(server, ok, burst.time)
                for response in responses:
                    for server, r in response.placements.values():
                        if server is None or r <= 0:
                            continue
                        ok = not (
                            burst.degraded
                            and server == load.degraded_server
                        )
                        observer.record_outcome(server, ok, burst.time)
            if (index + 1) % load.window_every == 0:
                for replica_id, proc in sorted(procs.items()):
                    if not proc.running or proc.service is None:
                        continue
                    states = proc.service.close_health_window()
                    if replica_id != config.observer:
                        continue
                    state = states.get(load.degraded_server)
                    if state == "open":
                        report.breaker_opened = True
                    if report.breaker_opened and state == "closed":
                        report.breaker_reclosed = True
            if config.pacing > 0:
                await asyncio.sleep(config.pacing)

        # flush any chaos scheduled at the very end of the horizon and
        # give the probe loop one final, explicit recovery observation
        clock.now = config.horizon
        await apply_chaos(config.horizon)
        await router.probe()

        report.duplicate_deliveries = router.duplicate_deliveries
        report.router = router.stats()
        report.recovery_times = router.membership.recovery_times()
        if link_chaos is not None:
            report.link_chaos = link_chaos.snapshot()
        for replica_id, proc in sorted(procs.items()):
            if proc.running and proc.service is not None:
                stats = proc.service.stats()
                report.replicas[replica_id] = stats
                report.dedup_hits += int(stats.get("dedup_hits", 0) or 0)
                trips = stats.get("breaker_remote_trips") or {}
                total = sum(int(v) for v in trips.values())
                if total:
                    report.remote_trips[replica_id] = total
            report.replicas.setdefault(replica_id, {})[
                "lifecycle"
            ] = {
                "starts": proc.starts,
                "kills": proc.kills,
                "running": proc.running,
            }
        for replica_id, agent in sorted(agents.items()):
            report.gossip[replica_id] = agent.stats()
    finally:
        for agent in agents.values():
            await agent.stop()
        agents.clear()
        await router.stop()
        for proc in procs.values():
            await proc.stop()

    report.wall_seconds = perf_counter() - started
    return report
