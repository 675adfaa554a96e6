"""Health gossip between fleet replicas.

Replicas publish :class:`HealthBeacon` records — queue watermark,
degradation rung, per-server breaker states, monotone sequence number —
through the ``gossip`` op of the TCP protocol.  :class:`GossipAgent`
runs the replica-side exchange loop: every interval it pushes its own
service's beacon to each peer and absorbs the beacon that comes back
(:meth:`ODMService.absorb_beacon`), so one replica's open breaker for a
dead offload server propagates fleet-wide within a round or two instead
of every replica paying the failure evidence separately.

:class:`GossipState` is the passive half: a seq-merged view of the
freshest beacon per replica, used by the router for least-loaded
routing and for the fleet-wide worst-case breaker view.

Each exchange is one short-lived
:class:`~repro.service.server.ServiceClient` connection.  With a
:class:`~repro.fleet.cachetier.CacheReplicator` attached, the same
exchange also drives warm cache replication: the peer's gossip reply
piggybacks a ``cache_digest``, and when it advertises entries this
replica lacks the agent issues a ``cache_sync`` pull through the same
client before closing it.  Replication failures are swallowed like
any other peer error — a broken cache sync never degrades health
gossip.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..service.aio import cancel_and_wait
from ..service.server import ODMService, ServiceClient
from .cachetier import CacheReplicator

__all__ = [
    "GossipAgent",
    "GossipState",
    "HealthBeacon",
    "worst_breaker_state",
]

_SEVERITY = {"closed": 0, "half_open": 1, "open": 2}


def worst_breaker_state(states: "List[str] | Tuple[str, ...]") -> str:
    """The most degraded of several breaker states (``closed`` if none)."""
    worst = "closed"
    for state in states:
        if _SEVERITY.get(state, 0) > _SEVERITY[worst]:
            worst = state
    return worst


@dataclass(frozen=True)
class HealthBeacon:
    """One replica's health snapshot (typed view of the wire dict)."""

    replica_id: str
    seq: int
    queue_depth: int = 0
    queue_capacity: int = 0
    level: str = "exact"
    breakers: Mapping[str, str] = field(default_factory=dict)
    shed: float = 0.0

    @property
    def occupancy(self) -> float:
        if self.queue_capacity <= 0:
            return 0.0
        return min(1.0, max(0.0, self.queue_depth / self.queue_capacity))

    def to_dict(self) -> Dict[str, object]:
        return {
            "replica_id": self.replica_id,
            "seq": self.seq,
            "queue_depth": self.queue_depth,
            "queue_capacity": self.queue_capacity,
            "level": self.level,
            "breakers": dict(self.breakers),
            "shed": self.shed,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "HealthBeacon":
        breakers = record.get("breakers") or {}
        if not isinstance(breakers, Mapping):
            raise ValueError("beacon breakers must be a mapping")
        return cls(
            replica_id=str(record.get("replica_id", "?")),
            seq=int(record.get("seq", 0) or 0),
            queue_depth=int(record.get("queue_depth", 0) or 0),
            queue_capacity=int(record.get("queue_capacity", 0) or 0),
            level=str(record.get("level", "exact")),
            breakers={str(k): str(v) for k, v in breakers.items()},
            shed=float(record.get("shed", 0.0) or 0.0),
        )


class GossipState:
    """Freshest-beacon-per-replica view (seq-numbered merge)."""

    def __init__(self) -> None:
        self.beacons: Dict[str, HealthBeacon] = {}
        self.absorbed = 0
        self.stale = 0

    def absorb(self, beacon: HealthBeacon) -> bool:
        """Keep ``beacon`` iff it is newer than what we hold; report it."""
        held = self.beacons.get(beacon.replica_id)
        if held is not None and beacon.seq <= held.seq:
            self.stale += 1
            return False
        self.beacons[beacon.replica_id] = beacon
        self.absorbed += 1
        return True

    def merged_breakers(self) -> Dict[str, str]:
        """Fleet-wide worst-case breaker state per offload server."""
        merged: Dict[str, List[str]] = {}
        for beacon in self.beacons.values():
            for server_id, state in beacon.breakers.items():
                merged.setdefault(server_id, []).append(state)
        return {
            server_id: worst_breaker_state(states)
            for server_id, states in sorted(merged.items())
        }

    def snapshot(self) -> Dict[str, object]:
        return {
            replica_id: beacon.to_dict()
            for replica_id, beacon in sorted(self.beacons.items())
        }


class GossipAgent:
    """Replica-side gossip loop over short-lived client connections.

    Each round the agent dials every peer, pushes its own service's
    beacon and absorbs the reply into both the service (breaker
    propagation) and a local :class:`GossipState` (observability).
    Unreachable peers are counted and skipped — a dead peer never
    stalls the round, and the loop itself never raises.
    """

    def __init__(
        self,
        service: ODMService,
        peers: Mapping[str, Tuple[str, int]],
        interval: float = 0.05,
        timeout: float = 1.0,
        replicator: Optional[CacheReplicator] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.service = service
        self.replicator = replicator
        self.peers = {
            str(peer_id): (str(host), int(port))
            for peer_id, (host, port) in peers.items()
            if str(peer_id) != service.replica_id
        }
        self.interval = interval
        self.timeout = timeout
        self.state = GossipState()
        self.rounds = 0
        self.exchanges = 0
        self.unreachable = 0
        self._task: Optional[asyncio.Task] = None

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    async def start(self) -> "GossipAgent":
        if not self.running:
            self._task = asyncio.create_task(
                self._loop(), name=f"gossip-{self.service.replica_id}"
            )
        return self

    async def stop(self) -> None:
        if self._task is None:
            return
        task, self._task = self._task, None
        await cancel_and_wait(task)

    async def _loop(self) -> None:
        while True:
            await asyncio.sleep(self.interval)
            await self.run_round()

    async def run_round(self) -> int:
        """One full exchange with every peer; returns peers reached."""
        self.rounds += 1
        reached = 0
        for peer_id, (host, port) in sorted(self.peers.items()):
            try:
                await asyncio.wait_for(
                    self._exchange(host, port), timeout=self.timeout
                )
                reached += 1
                self.exchanges += 1
            except (
                ConnectionError,
                OSError,
                asyncio.TimeoutError,
                ValueError,  # malformed peer beacon/frame
            ):
                self.unreachable += 1
        return reached

    async def _exchange(self, host: str, port: int) -> None:
        async with ServiceClient(host, port) as client:
            reply = await client.gossip(self.service.beacon())
            beacon_record = reply["beacon"]
            self.state.absorb(HealthBeacon.from_dict(beacon_record))
            self.service.absorb_beacon(beacon_record)
            digest = reply.get("cache_digest")
            if self.replicator is not None and isinstance(
                digest, Mapping
            ):
                await self.replicator.maybe_pull(client, digest)

    def stats(self) -> Dict[str, object]:
        snapshot: Dict[str, object] = {
            "replica_id": self.service.replica_id,
            "rounds": self.rounds,
            "exchanges": self.exchanges,
            "unreachable": self.unreachable,
            "peers": sorted(self.peers),
        }
        if self.replicator is not None:
            snapshot["cache_tier"] = self.replicator.stats()
        return snapshot
