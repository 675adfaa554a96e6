"""The fleet chaos campaign: seeded load + replica death + full audit.

``repro fleet-campaign`` boots N supervised replicas behind a
:class:`~repro.fleet.router.FleetRouter` with replica-to-replica gossip
(:class:`~repro.fleet.scale.Fleet`, the one fleet boot), and drives the
same deterministic burst trace as ``repro loadgen`` through the router
while a :class:`~repro.faults.process.FleetChaosSchedule` kills and
restarts replicas mid-run and :class:`~repro.faults.process.LinkChaos`
injects loss and latency on router→replica links.

Every response that comes back goes through the loadgen's
:class:`~repro.service.loadgen.ResponseTally` (Theorem 3, the exact DP
contract, degraded admissibility agreement), and the router checks
that no request id is ever *delivered* two different decisions, so the
report's ``ok`` means: total replica death, restart amnesia, link loss
and hedged duplicates together produced **zero** guarantee violations.

The report (``BENCH_fleet.json``) records fleet p50/p99 latency — what
each caller waited on ``router.submit``, retries, failover backoff,
hedges and link chaos included — shed rate, failover/retry/hedge
counts and observed down→up recovery times.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..faults.injectors import FaultEvent, FaultSchedule
from ..faults.process import FleetChaosSchedule, LinkChaos
from ..observability import Observability
from ..observability.metrics import percentile
from ..service.loadgen import (
    LoadGenConfig,
    LoadGenReport,
    feed_health,
    generate_bursts,
)
from ..sim.rng import RandomStreams, derive_seed
from .router import FleetUnavailable, RouterConfig
from .scale import Fleet

__all__ = [
    "FleetCampaignConfig",
    "FleetCampaignReport",
    "run_fleet_campaign",
]

#: router tunables of the campaign fleet (hedged, unlike the sweep's)
REQUEST_TIMEOUT = 5.0
MAX_ATTEMPTS = 4
HEDGE_AFTER = 0.25
PROBE_INTERVAL = 0.03
GOSSIP_INTERVAL = 0.03
#: the replica that receives the synthesized offload-outcome evidence:
#: its breaker for the degraded server opens first and must then
#: *gossip* open on the other replicas (their breakers trip remotely,
#: without local evidence)
OBSERVER = "replica-0"
#: kill / restart positions on the virtual timeline (horizon fractions)
KILL_AT_FRACTION = 1.0 / 3.0
RESTART_AT_FRACTION = 2.0 / 3.0
#: chaos on the lossy link: drop probability, then latency spike
LINK_LOSS_PROBABILITY = 0.3
LINK_SPIKE_SECONDS = 0.01


@dataclass(frozen=True)
class FleetCampaignConfig:
    """Knobs of one reproducible fleet chaos campaign.

    The virtual timeline is the burst trace of ``load`` (one
    ``mean_burst_gap`` per burst).  The kill target must differ from
    the :data:`OBSERVER`, the outcome-evidence sink.
    """

    seed: int = 0
    replicas: int = 3
    load: LoadGenConfig = field(default_factory=LoadGenConfig)
    policy: str = "least_loaded"
    #: replica killed / restarted mid-run (``None`` disables process
    #: chaos)
    kill_replica: Optional[str] = "replica-1"
    #: replica whose router link suffers loss + latency chaos
    #: (``None`` disables link chaos)
    lossy_link: Optional[str] = "replica-2"
    #: real seconds slept per burst so probe/gossip loops get airtime
    pacing: float = 0.01
    resolution: int = 20_000

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        ids = self.replica_ids()
        if self.kill_replica is not None:
            if self.kill_replica not in ids:
                raise ValueError(
                    f"kill_replica {self.kill_replica!r} "
                    f"not in fleet {ids}"
                )
            if self.kill_replica == OBSERVER:
                raise ValueError(
                    "kill_replica must differ from the observer "
                    "(the outcome-evidence sink must survive)"
                )
        if self.lossy_link is not None and self.lossy_link not in ids:
            raise ValueError(
                f"lossy_link {self.lossy_link!r} not in fleet {ids}"
            )
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
                        magnitude=LINK_LOSS_PROBABILITY,
                        label="loss-burst",
                    ),
                    FaultEvent(
                        "latency_spike",
                        start=3.0 * quarter,
                        duration=quarter,
                        magnitude=LINK_SPIKE_SECONDS,
                        label="latency-storm",
                    ),
                ]
            )
        if self.kill_replica is None:
            return FleetChaosSchedule(link_faults=link_faults)
        return FleetChaosSchedule.kill_restart(
            self.kill_replica,
            kill_at=KILL_AT_FRACTION * self.horizon,
            restart_at=RESTART_AT_FRACTION * self.horizon,
            link_faults=link_faults,
        )


class _VirtualClock:
    """The campaign's burst-timeline clock (drives LinkChaos windows)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@dataclass
class FleetCampaignReport(LoadGenReport):
    """What the campaign did, suffered, and proved.

    ``latencies`` are what each caller waited on ``router.submit``;
    ``requests`` includes the ``unrouted`` ones the router gave up on.
    """

    unrouted: int = 0
    served_by: Dict[str, int] = field(default_factory=dict)
    duplicate_deliveries: int = 0
    dedup_hits: int = 0
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
        return super().ok and self.duplicate_deliveries == 0

    def to_dict(self) -> Dict[str, object]:
        recoveries = [
            seconds
            for times in self.recovery_times.values()
            for seconds in times
        ]
        record = super().to_dict()
        del record["stats"]  # per-replica stats live under "replicas"
        record.update(
            {
                "unrouted": self.unrouted,
                "shed_rate": (
                    self.shed / self.requests if self.requests else 0.0
                ),
                "served_by": dict(self.served_by),
                "latency": {
                    "fleet_p50": percentile(self.latencies, 50),
                    "fleet_p99": percentile(self.latencies, 99),
                },
                "duplicate_deliveries": self.duplicate_deliveries,
                "dedup_hits": self.dedup_hits,
                "remote_trips": dict(self.remote_trips),
                "chaos_events": list(self.chaos_events),
                "recovery": {
                    "times": dict(self.recovery_times),
                    "count": len(recoveries),
                    "max_seconds": max(recoveries, default=0.0),
                    "mean_seconds": (
                        sum(recoveries) / len(recoveries)
                        if recoveries
                        else 0.0
                    ),
                },
                "link_chaos": dict(self.link_chaos),
                "router": dict(self.router),
                "replicas": dict(self.replicas),
                "gossip": dict(self.gossip),
                "wall_seconds": self.wall_seconds,
            }
        )
        return record


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
    link_chaos = (
        LinkChaos(
            schedule.link_faults,
            rng=streams.get("link-chaos"),
            clock=clock,
        )
        if schedule.link_faults
        else None
    )
    fleet = Fleet(
        config.replicas,
        RouterConfig(
            policy=config.policy,
            request_timeout=REQUEST_TIMEOUT,
            max_attempts=MAX_ATTEMPTS,
            hedge_after=HEDGE_AFTER,
            probe_interval=PROBE_INTERVAL,
            seed=derive_seed(config.seed, "router"),
        ),
        resolution=config.resolution,
        gossip_interval=GOSSIP_INTERVAL,
        max_wait=0.002,
        observability=obs,
        link_chaos=link_chaos,
    )

    async def apply_chaos(now: float) -> None:
        for action in schedule.due(now):
            wall = perf_counter() - started
            if action.action == "kill":
                await fleet.kill(action.target)
            else:
                await fleet.restart(action.target)
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

    # synthesized offload outcomes land on the observer only; the
    # other replicas must learn about the degraded server exclusively
    # through gossip
    def record_outcome(server: str, ok: bool, at: float) -> None:
        proc = fleet.procs[OBSERVER]
        if proc.running and proc.service is not None:
            proc.service.record_outcome(server, ok, at)

    def close_windows() -> Dict[str, str]:
        """Close every live replica's window; the observer's counts."""
        states: Dict[str, str] = {}
        for replica_id, proc in sorted(fleet.procs.items()):
            if proc.running and proc.service is not None:
                closed = proc.service.close_health_window()
                if replica_id == OBSERVER:
                    states = closed
        return states

    async def timed_submit(request):
        began = perf_counter()
        response = await fleet.router.submit(request)
        return response, perf_counter() - began

    async with fleet:
        for index, burst in enumerate(bursts):
            clock.now = burst.time
            await apply_chaos(burst.time)
            outcomes = await asyncio.gather(
                *(timed_submit(request) for request in burst.requests),
                return_exceptions=True,
            )
            responses = []
            for request, outcome in zip(burst.requests, outcomes):
                if isinstance(outcome, BaseException):
                    if not isinstance(outcome, FleetUnavailable):
                        raise outcome
                    report.requests += 1
                    report.unrouted += 1
                    continue
                response, latency = outcome
                responses.append(response)
                report.record(request, response, latency, config.resolution)
                served = response.replica or "?"
                report.served_by[served] = (
                    report.served_by.get(served, 0) + 1
                )
            await feed_health(
                load, report, index, burst, responses,
                record_outcome, close_windows,
            )
            if config.pacing > 0:
                await asyncio.sleep(config.pacing)

        # flush any chaos scheduled at the very end of the horizon and
        # give the probe loop one final, explicit recovery observation
        clock.now = config.horizon
        await apply_chaos(config.horizon)
        router = fleet.router
        await router.probe()

        report.duplicate_deliveries = router.duplicate_deliveries
        report.router = router.stats()
        report.recovery_times = router.membership.recovery_times()
        if link_chaos is not None:
            report.link_chaos = link_chaos.snapshot()
        for replica_id, proc in sorted(fleet.procs.items()):
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
        for replica_id, agent in sorted(fleet.agents.items()):
            report.gossip[replica_id] = agent.stats()

    report.wall_seconds = perf_counter() - started
    return report
