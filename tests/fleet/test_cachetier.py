"""Unit tests for the fleet cache tier (digest / sync / absorb).

Everything here runs against in-process :class:`SolverCache` pairs —
no sockets — pinning the protocol invariants the live fleet relies
on: budgets clamp to the responder, oversized records are skipped and
counted, resident entries are never overwritten, and replication can
never change what a cache would answer.
"""

import asyncio

import pytest

from repro.fleet.cachetier import (
    CacheReplicator,
    CacheTierConfig,
    absorb_sync_reply,
    build_sync_reply,
    cache_digest,
    warm_from_peer,
)
from repro.knapsack import (
    MCKPClass,
    MCKPInstance,
    MCKPItem,
    SolverCache,
    solve_delta,
    solve_dp,
)
from repro.knapsack.serialize import (
    CACHE_WIRE_VERSION,
    encode_entry,
    key_fingerprint,
)

RESOLUTION = 2_000


def _instance(index: int) -> MCKPInstance:
    return MCKPInstance(
        classes=(
            MCKPClass(
                "c0",
                (
                    MCKPItem(value=1.0, weight=0.0),
                    MCKPItem(value=5.0 + index, weight=4.0),
                ),
            ),
            MCKPClass(
                "c1",
                (
                    MCKPItem(value=2.0, weight=0.0),
                    MCKPItem(value=9.0, weight=7.0 - (index % 10) * 0.5),
                ),
            ),
        ),
        capacity=10.0,
    )


def _filled_cache(n: int, delta_states: int = 0) -> SolverCache:
    cache = SolverCache(maxsize=64, delta_maxstates=8)
    for index in range(n):
        instance = _instance(index)
        key = SolverCache.key_for("dp", instance, resolution=RESOLUTION)
        selection = solve_dp(instance, resolution=RESOLUTION)
        cache.store(
            key, None if selection is None else dict(selection.choices)
        )
    for index in range(delta_states):
        instance = _instance(100 + index)
        key = SolverCache.key_for(
            "delta", instance, resolution=RESOLUTION
        )
        cache.store_state(
            key, solve_delta(instance, resolution=RESOLUTION).state
        )
    return cache


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def test_digest_advertises_hottest_fingerprints():
    cache = _filled_cache(6)
    hot_key = cache.keys()[2]
    for _ in range(3):
        cache.lookup(hot_key)
    digest = cache_digest(cache, limit=2)
    assert digest["v"] == CACHE_WIRE_VERSION
    assert digest["entries"] == 6
    assert len(digest["hot"]) == 2
    assert digest["hot"][0] == key_fingerprint(hot_key)


def test_digest_probe_does_not_skew_hit_stats():
    cache = _filled_cache(4)
    before = dict(cache.stats)
    cache_digest(cache, limit=4)
    assert dict(cache.stats) == before


# ----------------------------------------------------------------------
# sync replies: budgets, have-lists, size caps
# ----------------------------------------------------------------------
def test_reply_respects_responder_budget_clamp():
    cache = _filled_cache(10)
    config = CacheTierConfig(sync_budget=3)
    reply = build_sync_reply(cache, budget=1000, config=config)
    assert len(reply["entries"]) == 3


def test_reply_skips_entries_the_requester_holds():
    cache = _filled_cache(5)
    have = [key_fingerprint(key) for key in cache.keys()[:3]]
    reply = build_sync_reply(cache, have=have)
    sent = {record["key"]["classes"][0][1][1][0] for record in
            reply["entries"]}
    assert len(reply["entries"]) == 2
    # the full budget is still available past the known set
    full = build_sync_reply(cache)
    assert len(full["entries"]) == 5
    assert sent <= {
        record["key"]["classes"][0][1][1][0]
        for record in full["entries"]
    }


def test_reply_enforces_size_cap_and_counts_skips():
    cache = _filled_cache(4, delta_states=2)
    reply = build_sync_reply(
        cache, config=CacheTierConfig(max_entry_bytes=1)
    )
    assert reply["entries"] == []
    assert reply["states"] == []
    assert reply["oversize_skipped"] == 6


# ----------------------------------------------------------------------
# absorption
# ----------------------------------------------------------------------
def test_absorb_replicates_and_attributes_hits():
    source = _filled_cache(4, delta_states=2)
    target = SolverCache(maxsize=64, delta_maxstates=8)
    counts = absorb_sync_reply(target, build_sync_reply(source))
    assert counts == {"entries": 4, "states": 2, "rejected": 0}
    assert target.stats["replicated_in"] == 4
    assert target.stats["replicated_states_in"] == 2
    # a replicated entry answers exactly what the source would
    key = source.keys()[0]
    hit, choices = target.lookup(key)
    assert hit and choices == source.lookup(key)[1]
    assert target.stats["hits_replicated"] == 1
    assert target.stats["hits_local"] == 0


def test_replicated_state_warm_starts_a_churned_sibling():
    """A state that came over the wire (encode, decode, absorb) is
    indexed like a local one: a probe for a churned sibling finds it,
    and resuming from it is bit-identical to a scratch solve."""
    source = SolverCache(maxsize=64, delta_maxstates=8)
    solved = _instance(3)
    source.store_state(
        SolverCache.key_for("dp", solved, resolution=RESOLUTION),
        solve_delta(solved, resolution=RESOLUTION).state,
    )
    target = SolverCache(maxsize=64, delta_maxstates=8)
    counts = absorb_sync_reply(target, build_sync_reply(source))
    assert counts["states"] == 1
    # same first class, re-weighted second class
    sibling = MCKPInstance(
        classes=(
            solved.classes[0],
            MCKPClass(
                "c1",
                (
                    MCKPItem(value=2.0, weight=0.0),
                    MCKPItem(value=9.0, weight=2.25),
                ),
            ),
        ),
        capacity=solved.capacity,
    )
    state = target.probe_delta(sibling, RESOLUTION)
    assert state is not None
    assert target.stats["near_hits"] == 1
    result = solve_delta(sibling, resolution=RESOLUTION, state=state)
    scratch = solve_dp(sibling, resolution=RESOLUTION)
    assert result.reused_layers == 1
    assert result.selection.choices == scratch.choices
    assert result.selection.total_value == scratch.total_value
    assert result.selection.total_weight == scratch.total_weight


def test_absorb_never_overwrites_resident_entries():
    source = _filled_cache(3)
    target = _filled_cache(3)
    resident_key = target.keys()[0]
    target.lookup(resident_key)  # give it history worth keeping
    hits_before = target.stats["hits"]
    counts = absorb_sync_reply(target, build_sync_reply(source))
    assert counts["entries"] == 0
    assert target.stats["replicated_in"] == 0
    # origin stays local: the next hit counts as hits_local
    target.lookup(resident_key)
    assert target.stats["hits_local"] == hits_before + 1


def test_absorb_rejects_bad_records_individually():
    source = _filled_cache(2)
    reply = build_sync_reply(source)
    reply["entries"].append({"v": CACHE_WIRE_VERSION + 1})
    reply["entries"].append("not even a dict")
    target = SolverCache(maxsize=64)
    counts = absorb_sync_reply(target, reply)
    assert counts == {"entries": 2, "states": 0, "rejected": 2}


# ----------------------------------------------------------------------
# replicator gating
# ----------------------------------------------------------------------
def test_wants_pull_only_when_digest_has_news():
    source = _filled_cache(3)
    replicator = CacheReplicator(SolverCache(maxsize=64))
    digest = cache_digest(source, limit=3)
    assert replicator.wants_pull(digest)
    absorb_sync_reply(replicator.cache, build_sync_reply(source))
    assert not replicator.wants_pull(digest)
    assert not replicator.wants_pull({"v": 1, "entries": 0, "hot": []})


def test_replicator_stats_accumulate():
    source = _filled_cache(3)
    replicator = CacheReplicator(SolverCache(maxsize=64))
    reply = build_sync_reply(source)
    reply["entries"].append({"v": 99})
    replicator.absorb(reply)
    stats = replicator.stats()
    assert stats["sync_rounds"] == 1
    assert stats["entries_absorbed"] == 3
    assert stats["records_rejected"] == 1


# ----------------------------------------------------------------------
# explicit restart-path warming
# ----------------------------------------------------------------------
class _FakeClient:
    """A ServiceClient stand-in answering cache_sync from a cache."""

    def __init__(self, cache: SolverCache, config: CacheTierConfig):
        self.cache = cache
        self.config = config

    async def cache_sync(self, have=(), budget=None, states=None,
                         max_bytes=None):
        reply = build_sync_reply(
            self.cache,
            have=have,
            budget=budget,
            states=states,
            max_bytes=max_bytes,
            config=self.config,
        )
        reply["op"] = "cache_sync"
        return reply


def test_warm_from_peer_drains_in_budgeted_pulls():
    async def run():
        peer = _filled_cache(7, delta_states=1)
        config = CacheTierConfig(sync_budget=3, state_budget=2)
        cache = SolverCache(maxsize=64, delta_maxstates=8)
        client = _FakeClient(peer, config)
        pulls = []
        while True:
            counts = await warm_from_peer(cache, client, config)
            pulls.append(counts["entries"])
            if counts["entries"] == 0:
                break
        return cache, pulls

    cache, pulls = asyncio.run(run())
    assert pulls == [3, 3, 1, 0]
    assert len(cache) == 7
    assert cache.stats["replicated_in"] == 7
