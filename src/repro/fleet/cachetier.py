"""Cross-replica warm replication of solver-cache contents.

A replica that dies restarts *amnesiac* (:mod:`repro.faults.process`),
and a replica added to scale out starts cold — both then pay a scratch
DP solve for every instance their peers already solved.  The cache
tier closes that gap with a pull-based replication protocol layered on
the machinery that already exists:

* **Digests piggyback on gossip.**  Every ``gossip`` reply carries a
  ``cache_digest`` — entry count plus a bounded list of
  :func:`~repro.knapsack.serialize.key_fingerprint` values for the
  hottest entries (hit-count-ranked).  The digest costs a few hundred
  bytes and rides the beacon exchange :class:`~repro.fleet.gossip.GossipAgent`
  already runs every interval.
* **Bulk transfer is a dedicated op.**  When a digest advertises
  fingerprints the local cache lacks, :class:`CacheReplicator` sends
  a ``cache_sync`` request through the gossip exchange's own
  :class:`~repro.service.server.ServiceClient`, carrying its ``have``
  fingerprints and budgets; the peer answers with up to
  ``sync_budget`` serialized hot entries and ``state_budget``
  resumable delta states, each individually capped at
  ``max_entry_bytes`` (oversized records are *skipped and counted*,
  never truncated).
* **Absorption is strictly an optimization.**  Records decode through
  the versioned codec (:mod:`repro.knapsack.serialize`); version
  mismatches and malformed records are rejected and counted.  Decoded
  entries enter the cache under the same canonical structural key a
  local solve would compute, and solvers are pure functions of that
  key — so a replicated entry holds byte-identical choices to what the
  local solver would have produced, and every admission stays
  bit-identical to the serial reference (the fleet campaign audit
  re-proves this on every response with the tier enabled).

The server half of the op lives in
:meth:`repro.service.server.ODMService.cache_sync_reply` /
``serve_tcp``; this module owns the protocol records, the budgets and
the pull side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..knapsack import SolverCache
from ..knapsack.serialize import (
    CACHE_WIRE_VERSION,
    CacheCodecError,
    decode_entry,
    decode_state,
    encode_entry,
    encode_state,
    encoded_size,
    key_fingerprint,
)

__all__ = [
    "CacheTierConfig",
    "CacheReplicator",
    "cache_digest",
    "build_sync_reply",
    "absorb_sync_reply",
    "warm_from_peer",
]


@dataclass(frozen=True)
class CacheTierConfig:
    """Budgets of one replication endpoint.

    ``sync_budget`` / ``state_budget`` bound how many entries / delta
    states one sync round ships; ``max_entry_bytes`` caps each record's
    serialized footprint; ``digest_limit`` bounds the fingerprints a
    digest advertises.  Requested budgets are clamped to the
    *responder's* config, so a greedy peer can never make a replica
    serialize more than it signed up for.
    """

    sync_budget: int = 32
    state_budget: int = 4
    max_entry_bytes: int = 262_144
    digest_limit: int = 32

    def __post_init__(self) -> None:
        if self.sync_budget < 0 or self.state_budget < 0:
            raise ValueError("budgets must be non-negative")
        if self.max_entry_bytes <= 0:
            raise ValueError("max_entry_bytes must be positive")
        if self.digest_limit < 0:
            raise ValueError("digest_limit must be non-negative")


def cache_digest(
    cache: SolverCache, limit: int = 32
) -> Dict[str, object]:
    """The gossip-piggybacked advertisement of one replica's cache."""
    return {
        "v": CACHE_WIRE_VERSION,
        "entries": len(cache),
        "hot": [
            key_fingerprint(key)
            for key, _ in cache.hot_entries(limit)
        ],
    }


def build_sync_reply(
    cache: SolverCache,
    have: Optional[Sequence[str]] = None,
    budget: Optional[int] = None,
    states: Optional[int] = None,
    max_bytes: Optional[int] = None,
    config: Optional[CacheTierConfig] = None,
) -> Dict[str, object]:
    """The responder half of one ``cache_sync`` round.

    Serializes up to ``budget`` hottest entries the requester does not
    already hold (its ``have`` fingerprints) plus up to ``states``
    freshest delta states, skipping — and counting — any record whose
    encoded size exceeds the cap.  Requested budgets/cap are clamped to
    this replica's ``config``.
    """
    cfg = config or CacheTierConfig()
    entry_budget = (
        cfg.sync_budget
        if budget is None
        else max(0, min(int(budget), cfg.sync_budget))
    )
    state_budget = (
        cfg.state_budget
        if states is None
        else max(0, min(int(states), cfg.state_budget))
    )
    cap = (
        cfg.max_entry_bytes
        if max_bytes is None
        else max(1, min(int(max_bytes), cfg.max_entry_bytes))
    )
    known = {str(fp) for fp in (have or ())}
    entries: List[Dict[str, object]] = []
    skipped = 0
    # over-scan: entries the requester already holds don't consume the
    # budget, so rank enough candidates to fill it past the known set
    for key, choices in cache.hot_entries(entry_budget + len(known)):
        if len(entries) >= entry_budget:
            break
        if key_fingerprint(key) in known:
            continue
        record = encode_entry(key, choices)
        if encoded_size(record) > cap:
            skipped += 1
            continue
        entries.append(record)
    state_records: List[Dict[str, object]] = []
    for key, state in cache.hot_states(state_budget):
        record = encode_state(key, state)
        if encoded_size(record) > cap:
            skipped += 1
            continue
        state_records.append(record)
    return {
        "v": CACHE_WIRE_VERSION,
        "entries": entries,
        "states": state_records,
        "oversize_skipped": skipped,
    }


def absorb_sync_reply(
    cache: SolverCache, reply: Mapping[str, object]
) -> Dict[str, int]:
    """Fold one ``cache_sync`` reply into the local cache.

    Returns absorption counts; malformed or version-mismatched records
    are rejected individually (counted, never raised) — one bad record
    cannot poison the rest of the round.
    """
    counts = {"entries": 0, "states": 0, "rejected": 0}
    entries = reply.get("entries")
    for record in entries if isinstance(entries, list) else ():
        try:
            key, choices = decode_entry(record)
        except CacheCodecError:
            counts["rejected"] += 1
            continue
        if cache.absorb(key, choices):
            counts["entries"] += 1
    states = reply.get("states")
    for record in states if isinstance(states, list) else ():
        try:
            key, state = decode_state(record)
        except CacheCodecError:
            counts["rejected"] += 1
            continue
        if cache.absorb_state(key, state):
            counts["states"] += 1
    return counts


class CacheReplicator:
    """The pull side of warm replication, one per replica.

    Hooked into :class:`~repro.fleet.gossip.GossipAgent`: after each
    beacon exchange the agent hands the peer's ``cache_digest`` (and
    its still-open client) to :meth:`maybe_pull`, which issues a
    ``cache_sync`` pull only when the digest advertises fingerprints
    the local cache lacks.
    """

    def __init__(
        self,
        cache: SolverCache,
        config: Optional[CacheTierConfig] = None,
    ) -> None:
        self.cache = cache
        self.config = config or CacheTierConfig()
        self.sync_rounds = 0
        self.skipped_in_sync = 0
        self.entries_absorbed = 0
        self.states_absorbed = 0
        self.records_rejected = 0
        self.digests_seen = 0
        self.digests_skipped = 0

    def digest(self) -> Dict[str, object]:
        """This replica's own advertisement (symmetric observability)."""
        return cache_digest(self.cache, self.config.digest_limit)

    def wants_pull(self, digest: Mapping[str, object]) -> bool:
        """Does ``digest`` advertise anything we don't hold?"""
        hot = digest.get("hot")
        if not isinstance(hot, list) or not hot:
            return False
        held = {
            key_fingerprint(key) for key in self.cache.keys()
        }
        return any(str(fp) not in held for fp in hot)

    def sync_request(self) -> Dict[str, object]:
        """The ``cache_sync`` arguments for one full-budget pull."""
        return {
            "have": [key_fingerprint(key) for key in self.cache.keys()],
            "budget": self.config.sync_budget,
            "states": self.config.state_budget,
            "max_bytes": self.config.max_entry_bytes,
        }

    def absorb(self, reply: Mapping[str, object]) -> Dict[str, int]:
        counts = absorb_sync_reply(self.cache, reply)
        self.sync_rounds += 1
        self.entries_absorbed += counts["entries"]
        self.states_absorbed += counts["states"]
        self.records_rejected += counts["rejected"]
        self.skipped_in_sync += int(
            reply.get("oversize_skipped", 0) or 0
        )
        return counts

    async def pull(self, client) -> Dict[str, int]:
        """One ``cache_sync`` pull through a ``ServiceClient``."""
        return self.absorb(await client.cache_sync(**self.sync_request()))

    async def maybe_pull(
        self, client, digest: Mapping[str, object]
    ) -> Optional[Dict[str, int]]:
        """One digest-gated :meth:`pull` from the peer behind ``client``."""
        self.digests_seen += 1
        if not self.wants_pull(digest):
            self.digests_skipped += 1
            return None
        return await self.pull(client)

    def stats(self) -> Dict[str, int]:
        return {
            "sync_rounds": self.sync_rounds,
            "entries_absorbed": self.entries_absorbed,
            "states_absorbed": self.states_absorbed,
            "records_rejected": self.records_rejected,
            "oversize_skipped": self.skipped_in_sync,
            "digests_seen": self.digests_seen,
            "digests_skipped": self.digests_skipped,
        }


async def warm_from_peer(
    cache: SolverCache,
    client,
    config: Optional[CacheTierConfig] = None,
) -> Dict[str, int]:
    """Explicitly warm ``cache`` from one peer via a ``ServiceClient``.

    The restart path: a freshly (re)started replica pulls a full
    budget's worth of hot entries before taking traffic, instead of
    waiting for the gossip cadence to find the digests.
    """
    return await CacheReplicator(cache, config).pull(client)
