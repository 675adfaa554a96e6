"""Fault-tolerant multi-replica fleet for the online ODM service.

One :class:`~repro.service.server.ODMService` is a single point of
failure: a crashed process takes every in-flight admission with it.
This package replicates the service and makes the *ensemble* reliable
without ever weakening the paper's guarantee — whichever replica
answers, the answer is Theorem-3-verified inside that replica and
re-audited by the campaign:

* :mod:`repro.fleet.membership` — replica specs, the up/suspect/down
  failure detector with measured recovery times, and the consistent
  hash ring;
* :mod:`repro.fleet.gossip` — health beacons (queue watermarks +
  breaker states), the seq-merged fleet view, and the replica-side
  gossip agent that propagates one replica's open breaker to all;
* :mod:`repro.fleet.router` — the failover front door: per-request
  deadlines, bounded seeded-jitter retry, hedged requests, gossip-fed
  load-aware routing, exactly-once delivery checking;
* :mod:`repro.fleet.campaign` — the chaos campaign behind
  ``repro fleet-campaign``: replica kill/restart + link loss mid-load,
  every response audited, results in ``BENCH_fleet.json``;
* :mod:`repro.fleet.cachetier` — warm replication of solver-cache
  entries and delta states between replicas (gossip-piggybacked
  digests + budgeted binary ``cache_sync`` pulls), so restarted and
  scaled-out replicas start warm;
* :mod:`repro.fleet.scale` — the one fleet boot
  (:class:`~repro.fleet.scale.Fleet`: replicas + gossip + router, kill
  and restart) and the sustained open-loop load harness behind
  ``repro fleet-scale``: replica-count × arrival-rate sweeps plus the
  warm-vs-cold restart comparison, results in
  ``BENCH_fleet_scale.json``.
"""

from .cachetier import (
    CacheReplicator,
    CacheTierConfig,
    absorb_sync_reply,
    build_sync_reply,
    cache_digest,
    warm_from_peer,
)
from .campaign import (
    FleetCampaignConfig,
    FleetCampaignReport,
    run_fleet_campaign,
)
from .gossip import GossipAgent, GossipState, HealthBeacon, worst_breaker_state
from .membership import (
    REPLICA_STATES,
    FleetMembership,
    HashRing,
    ReplicaSpec,
    ReplicaStatus,
)
from .router import (
    ROUTING_POLICIES,
    FleetRouter,
    FleetUnavailable,
    RouterConfig,
)

from .scale import (
    FleetScaleConfig,
    FleetScaleReport,
    run_fleet_scale,
)

__all__ = [
    "REPLICA_STATES",
    "ROUTING_POLICIES",
    "CacheReplicator",
    "CacheTierConfig",
    "FleetScaleConfig",
    "FleetScaleReport",
    "FleetCampaignConfig",
    "FleetCampaignReport",
    "FleetMembership",
    "FleetRouter",
    "FleetUnavailable",
    "GossipAgent",
    "GossipState",
    "HashRing",
    "HealthBeacon",
    "ReplicaSpec",
    "ReplicaStatus",
    "RouterConfig",
    "absorb_sync_reply",
    "build_sync_reply",
    "cache_digest",
    "run_fleet_campaign",
    "run_fleet_scale",
    "warm_from_peer",
    "worst_breaker_state",
]
