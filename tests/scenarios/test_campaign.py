"""Campaign: smoke run, seeds, aggregation, report schema, bursts."""

import json

import pytest

from repro.scenarios import (
    CampaignConfig,
    CampaignMatrix,
    ScenarioSpec,
    run_campaign,
    scenario_pool,
    simulate_burst_admission,
    smoke_matrix,
    util_cap_axis,
    util_dist_axis,
)
from repro.scenarios.bursts import admissible, min_demand_rate
from repro.scenarios.generator import generate_scenario
from repro.service.loadgen import LoadGenConfig, generate_bursts


@pytest.fixture(scope="module")
def smoke_report():
    return run_campaign(
        config=CampaignConfig(seed=7), workers=1, smoke=True
    )


class TestCampaignConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(replications=0)
        with pytest.raises(ValueError):
            CampaignConfig(resolution=0)
        with pytest.raises(ValueError):
            CampaignConfig(energy_weight=-1)


class TestSmokeCampaign:
    def test_runs_clean(self, smoke_report):
        assert smoke_report.instances == 16
        assert smoke_report.cells == 16
        assert smoke_report.ok
        assert smoke_report.audit["anomaly_count"] == 0
        assert smoke_report.audit["anomalies"] == []

    def test_audit_actually_audited(self, smoke_report):
        # every instance is reference-checked twice (plain + blended)
        assert smoke_report.audit["reference_checks"] == 32
        # the 6-task smoke instances are small enough to brute-force
        assert smoke_report.audit["brute_checks"] > 0

    def test_marginals_cover_every_axis_point(self, smoke_report):
        matrix = smoke_matrix()
        assert smoke_report.axis_names == matrix.axis_names()
        for axis in matrix.axes:
            per = smoke_report.marginals[axis.name]
            assert set(per) == set(axis.labels())
            assert sum(m["instances"] for m in per.values()) == 16
            for m in per.values():
                assert 0.0 <= m["schedulable_fraction"] <= 1.0

    def test_burst_path_exercised(self, smoke_report):
        assert smoke_report.totals["burst_arrivals"] > 0
        assert smoke_report.totals["mean_miss_rate"] is not None

    def test_energy_saving_reported(self, smoke_report):
        saving = smoke_report.totals["energy_saving_fraction"]
        assert saving is not None
        assert saving >= -1e-9

    def test_report_is_json_ready(self, smoke_report):
        data = json.loads(smoke_report.to_json())
        assert data["schema"] == 1
        assert data["instances"] == 16
        assert data["ok"] is True
        assert smoke_report.format()  # human summary renders


class TestSerialParallelDeterminism:
    def test_different_seeds_differ(self):
        a = run_campaign(config=CampaignConfig(seed=1), workers=1,
                         smoke=True)
        b = run_campaign(config=CampaignConfig(seed=2), workers=1,
                         smoke=True)
        assert a.comparable_dict() != b.comparable_dict()


class TestBurstAdmission:
    def test_steady_spec_skips_simulation(self):
        spec = ScenarioSpec(num_tasks=4, burst_rate=0.0, burst_windows=0)
        tasks = generate_scenario(spec, 0)
        assert simulate_burst_admission(tasks, spec, 0) is None

    def test_outcome_accounting(self):
        spec = ScenarioSpec(
            num_tasks=5, util_cap=0.9, burst_rate=4.0, burst_windows=5
        )
        tasks = generate_scenario(spec, 1)
        outcome = simulate_burst_admission(tasks, spec, 1)
        assert outcome is not None
        assert outcome.windows == 5
        assert 0 <= outcome.admitted <= outcome.arrivals
        assert outcome.missed == outcome.arrivals - outcome.admitted
        assert 0.0 <= outcome.miss_rate <= 1.0

    def test_min_demand_rate_bounds_admissibility(self):
        tasks = generate_scenario(ScenarioSpec(num_tasks=4), 2)
        rate = min_demand_rate(tasks)
        assert rate > 0
        assert admissible(tasks) == (rate <= 1.0 + 1e-9)

    def test_scenario_pool_feeds_loadgen(self):
        matrix = CampaignMatrix(
            base=ScenarioSpec(num_tasks=4, num_benefit_points=2),
            axes=(util_dist_axis(("uunifast", "bimodal")),
                  util_cap_axis((0.6, 1.2))),
        )
        pool = scenario_pool(matrix.cells(), 9)
        # overload cells (cap 1.2) are skipped: service needs U <= 1
        assert len(pool) == 2
        bursts = generate_bursts(
            LoadGenConfig(seed=5, bursts=3), pool=pool
        )
        assert bursts
        pooled = {ts.task_ids for ts in pool}
        for burst in bursts:
            assert burst.requests
            for request in burst.requests:
                assert request.tasks.task_ids in pooled

    def test_scenario_pool_rejects_all_overload(self):
        with pytest.raises(ValueError, match="util_cap"):
            scenario_pool(
                [ScenarioSpec(num_tasks=3, util_cap=1.5)], 0
            )
