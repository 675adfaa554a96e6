"""Topology sweep driver: smoke run, audits, determinism, schema."""

import json

import pytest

from repro.experiments import TopologySweepConfig, run_topology_sweep
from repro.scenarios import topology_matrix, topology_smoke_matrix

_CONFIG = TopologySweepConfig(seed=7, num_samples=16, resolution=400)


@pytest.fixture(scope="module")
def smoke_report():
    return run_topology_sweep(config=_CONFIG, workers=1, smoke=True)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TopologySweepConfig(replications=0)
        with pytest.raises(ValueError):
            TopologySweepConfig(resolution=0)
        with pytest.raises(ValueError):
            TopologySweepConfig(num_samples=0)
        with pytest.raises(ValueError):
            TopologySweepConfig(brute_limit=-1)


class TestMatrices:
    def test_shapes(self):
        assert topology_matrix().num_cells == 24
        assert topology_smoke_matrix().num_cells == 6
        assert topology_matrix().axis_names() == (
            "servers", "heterogeneity", "link",
        )


class TestSmokeSweep:
    def test_runs_clean(self, smoke_report):
        assert smoke_report.instances == 6
        assert smoke_report.cells == 6
        assert smoke_report.ok
        assert smoke_report.audit["anomaly_count"] == 0
        assert smoke_report.audit["anomalies"] == []

    def test_audit_actually_audited(self, smoke_report):
        audit = smoke_report.audit
        assert audit["reference_checks"] == 6
        # the two n1 cells run the single-server bit-identity check
        assert audit["single_server_checks"] == 2
        # every instance that offloads anywhere runs the prune and the
        # recovery legs, and they always run together
        assert audit["prune_checks"] > 0
        assert audit["recovery_checks"] == audit["prune_checks"]
        # one restriction per server per instance: (1+2+4) x 2 links
        assert audit["federation_checks"] == 14
        assert audit["brute_checks"] > 0

    def test_marginals_cover_every_axis_point(self, smoke_report):
        matrix = topology_smoke_matrix()
        assert smoke_report.axis_names == matrix.axis_names()
        for axis in matrix.axes:
            per = smoke_report.marginals[axis.name]
            assert set(per) == set(axis.labels())
            assert sum(m["instances"] for m in per.values()) == 6

    def test_cache_stats_aggregated(self, smoke_report):
        cache = smoke_report.sections["stats"]["cache"]
        # decide + degraded decide + recovered decide per instance, the
        # recovery always served from cache
        assert cache["misses"] > 0
        assert cache["hits"] > 0

    def test_report_is_json_ready(self, smoke_report):
        data = json.loads(smoke_report.to_json())
        assert data["schema"] == 1
        assert data["instances"] == 6
        assert data["ok"] is True
        assert "topology sweep:" in smoke_report.format()

    def test_comparable_dict_drops_runtime_circumstances(
        self, smoke_report
    ):
        comparable = smoke_report.comparable_dict()
        for volatile in (
            "workers", "mode", "wall_seconds",
            "serial_parallel_identical",
        ):
            assert volatile not in comparable


class TestDeterminism:
    def test_serial_and_parallel_agree_bit_for_bit(self, smoke_report):
        parallel = run_topology_sweep(
            config=_CONFIG, workers=2, smoke=True
        )
        assert smoke_report.mode == "serial"
        assert parallel.mode == "parallel"
        assert (
            parallel.comparable_dict() == smoke_report.comparable_dict()
        )

    def test_different_seeds_differ(self, smoke_report):
        other = run_topology_sweep(
            config=TopologySweepConfig(
                seed=8, num_samples=16, resolution=400
            ),
            workers=1,
            smoke=True,
        )
        assert (
            other.comparable_dict() != smoke_report.comparable_dict()
        )
