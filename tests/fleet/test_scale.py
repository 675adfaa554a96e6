"""Fleet-scale harness: config discipline, recovery metric, mini sweep.

The full sweep lives in ``BENCH_fleet_scale.json``; here we pin the
harness mechanics — seed derivation per cell, the burst recovery
metric, and one miniature end-to-end cell + restart arm that must come
back audit-clean with exactly-once delivery.
"""

import asyncio

import pytest

from repro.fleet.scale import (
    FleetScaleConfig,
    FleetScaleReport,
    _run_cell,
    _run_restart_arm,
    _time_back_to_steady,
)


def config(**overrides):
    base = dict(
        seed=11,
        replica_counts=(1,),
        rate_multipliers=(1.0,),
        requests_per_cell=12,
        unique_sets=4,
        num_tasks=4,
        restart_num_tasks=4,
        restart_probes=8,
    )
    base.update(overrides)
    return FleetScaleConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            config(replica_counts=())
        with pytest.raises(ValueError):
            config(replica_counts=(0,))
        with pytest.raises(ValueError):
            config(rate_multipliers=(0.0,))
        with pytest.raises(ValueError):
            config(requests_per_cell=0)
        with pytest.raises(ValueError):
            config(restart_probes=0)
        with pytest.raises(ValueError):
            config(restart_num_tasks=0)

    def test_cell_loads_are_seed_distinct_but_reproducible(self):
        cfg = config()
        one = cfg.cell_load(1, 1.0)
        also_one = cfg.cell_load(1, 1.0)
        two = cfg.cell_load(2, 4.0)
        assert one.seed == also_one.seed
        assert one.seed != two.seed
        assert two.rate_multiplier == 4.0


class TestRecoveryMetric:
    def test_zero_when_everything_is_steady(self):
        assert _time_back_to_steady([0.01, 0.02, 0.015], 0.05) == 0.0

    def test_returns_completion_of_last_slow_response(self):
        latencies = [0.2, 0.05, 0.9, 0.01, 0.3]
        assert _time_back_to_steady(latencies, 0.25) == 0.9

    def test_empty_burst_is_zero(self):
        assert _time_back_to_steady([], 0.1) == 0.0


class TestMiniFleet:
    def test_single_cell_is_audit_clean(self):
        cell = asyncio.run(_run_cell(config(), 1, 1.0))
        assert cell["anomaly_count"] == 0
        assert cell["duplicate_deliveries"] == 0
        assert cell["errors"] == 0
        assert cell["replicas"] == 1
        assert cell["completed"] == 12
        attribution = cell["cache_attribution"]
        assert set(attribution) == {
            "hits_local",
            "hits_replicated",
            "delta_repaired",
            "misses",
            "replicated_in",
            "replicated_states_in",
        }

    def test_warm_restart_arm_resyncs_from_peer(self):
        arm = asyncio.run(
            _run_restart_arm(config(requests_per_cell=24), warm=True)
        )
        assert arm["warm"] is True
        assert arm["warmup_anomalies"] == 0
        assert arm["probe_anomalies"] == 0
        assert arm["duplicate_deliveries"] == 0
        # the dry-pull loop must have actually shipped entries into
        # the restarted replica before the probe burst
        assert arm["sync"]["pulls"] >= 1
        assert arm["sync"]["entries"] >= 1
        assert arm["replicated_in"] == arm["sync"]["entries"]
        assert arm["post_restart_hit_rate"] > 0.0


def test_report_ok_requires_clean_run_and_warm_win():
    report = FleetScaleReport(
        restart={"warm_better": True},
        anomaly_count=0,
        duplicate_deliveries=0,
    )
    assert report.ok
    assert report.to_dict()["ok"] is True
    report.anomaly_count = 1
    assert not report.ok
    report.anomaly_count = 0
    report.restart["warm_better"] = False
    assert not report.ok
