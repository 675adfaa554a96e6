"""End-to-end fleet chaos campaign: replica death, gossip, auditing."""

import asyncio

import pytest

from repro.fleet import FleetCampaignConfig, run_fleet_campaign
from repro.service import LoadGenConfig


def small_config(**overrides):
    # bursts=12 / window_every=2 aligns a window close over the two
    # fully-degraded bursts, so the campaign exercises a breaker trip
    load = LoadGenConfig(
        seed=7,
        bursts=12,
        mean_burst_size=4.0,
        unique_sets=4,
        num_tasks=4,
        window_every=2,
    )
    defaults = dict(seed=7, load=load, pacing=0.005)
    defaults.update(overrides)
    return FleetCampaignConfig(**defaults)


class TestFleetCampaignConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="replicas"):
            FleetCampaignConfig(replicas=0)
        with pytest.raises(ValueError, match="kill_replica"):
            FleetCampaignConfig(replicas=1)  # default victim not in fleet
        with pytest.raises(ValueError, match="observer"):
            FleetCampaignConfig(kill_replica="replica-0")
        with pytest.raises(ValueError, match="lossy_link"):
            FleetCampaignConfig(lossy_link="replica-9")

    def test_chaos_schedule_kills_then_restarts(self):
        config = small_config()
        schedule = config.chaos_schedule()
        actions = list(schedule)
        assert [a.action for a in actions] == ["kill", "restart"]
        assert actions[0].target == config.kill_replica
        assert actions[0].at < actions[1].at <= config.horizon


class TestFleetCampaign:
    def test_campaign_survives_a_replica_death(self):
        report = asyncio.run(run_fleet_campaign(small_config()))

        # hard guarantees: every admitted answer audits clean against
        # the serial reference solver, and no id got two decisions
        assert report.ok
        assert report.anomaly_count == 0
        assert report.duplicate_deliveries == 0
        # chaos actually happened: one kill, one restart, both executed
        assert [e["action"] for e in report.chaos_events] == [
            "kill",
            "restart",
        ]
        # no request was lost to the dead replica — failover absorbed it
        assert report.unrouted == 0
        assert report.requests > 0
        assert report.admitted + report.rejected + report.shed == (
            report.requests
        )
        # load spread beyond a single replica
        assert len(report.served_by) >= 2
        assert sum(report.served_by.values()) == report.requests

    def test_gossip_propagates_the_degraded_server(self):
        report = asyncio.run(run_fleet_campaign(small_config()))

        # the observer replica saw the degraded server's failures and
        # tripped (then, post-chaos, re-closed) its breaker locally ...
        assert report.breaker_opened
        assert report.breaker_reclosed
        # ... and at least one *other* replica tripped purely on
        # gossiped evidence — it never received outcomes directly
        assert sum(report.remote_trips.values()) >= 1

    def test_recovery_is_measured(self):
        report = asyncio.run(run_fleet_campaign(small_config()))

        times = report.recovery_times.get("replica-1", [])
        assert len(times) >= 1
        assert all(t >= 0.0 for t in times)
        # the replica is back up at campaign end
        lifecycle = report.replicas["replica-1"]["lifecycle"]
        assert lifecycle["running"]
        assert lifecycle["starts"] == 2
        assert lifecycle["kills"] == 1

    def test_link_chaos_is_recorded(self):
        report = asyncio.run(run_fleet_campaign(small_config()))

        lossy = report.link_chaos[
            FleetCampaignConfig().lossy_link
        ]
        assert lossy["losses"] + lossy["delays"] >= 1

    def test_report_serializes(self):
        import json

        report = asyncio.run(run_fleet_campaign(small_config()))
        record = report.to_dict()
        json.dumps(record)  # strictly JSON-serializable
        assert record["ok"] is True
        assert record["shed_rate"] == pytest.approx(
            report.shed / report.requests
        )
        latency = record["latency"]
        assert latency["fleet_p50"] <= latency["fleet_p99"]
        assert record["recovery"]["count"] >= 1

    def test_fleet_latency_is_what_the_caller_waited(self):
        # each request's fleet latency spans its whole router.submit
        # (retries, failover backoff, hedges, link chaos), so it tracks
        # the router's own latency histogram
        report = asyncio.run(run_fleet_campaign(small_config()))
        fleet_p50 = report.to_dict()["latency"]["fleet_p50"]
        router_p50 = report.router["latency_p50"]
        assert fleet_p50 == pytest.approx(router_p50, rel=0.10)

    def test_campaign_is_seeded(self):
        first = asyncio.run(run_fleet_campaign(small_config()))
        second = asyncio.run(run_fleet_campaign(small_config()))
        # wall-clock fields differ; the logical outcome must not
        assert first.requests == second.requests
        assert first.admitted == second.admitted
        assert first.rejected == second.rejected
        assert first.shed == second.shed
