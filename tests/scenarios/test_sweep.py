"""The audited-sweep harness both sweeps run on: worker-count
determinism, the runtime-only report keys, and the anomaly fold."""

import pytest

from repro.experiments import TopologySweepConfig, run_topology_sweep
from repro.scenarios import (
    AuditedSweep,
    CampaignConfig,
    run_campaign,
    smoke_matrix,
)
from repro.scenarios.sweep import VOLATILE_KEYS

SWEEPS = {
    "campaign": (run_campaign, CampaignConfig(seed=3)),
    "topology": (
        run_topology_sweep,
        TopologySweepConfig(seed=7, num_samples=16, resolution=400),
    ),
}


@pytest.mark.parametrize("kind", sorted(SWEEPS))
def test_serial_and_parallel_agree_bit_for_bit(kind):
    run, config = SWEEPS[kind]
    serial = run(config=config, workers=1, smoke=True)
    parallel = run(config=config, workers=2, smoke=True)
    assert serial.mode == "serial"
    assert parallel.mode == "parallel"
    assert serial.comparable_dict() == parallel.comparable_dict()
    # the comparison drops exactly how the run executed
    full = serial.to_dict()
    comparable = serial.comparable_dict()
    assert all(key in full for key in VOLATILE_KEYS)
    assert set(full) - set(comparable) == set(VOLATILE_KEYS)


def _anomalous_unit(spec, streams, resolution, param, brute_limit):
    """Two anomalies per instance, one marginal value that is missing
    on every other draw."""
    draw = float(streams.get("fake").random())
    return {
        "labels": list(spec.axis_labels),
        "value": draw if draw < 0.5 else None,
        "audit": {
            "reference_checks": 1,
            "anomalies": [f"{spec.axis_labels[0][1]}: a", "b"],
        },
    }


def test_anomaly_list_is_capped_but_every_anomaly_is_counted():
    sweep = AuditedSweep(
        name="fake",
        unit=_anomalous_unit,
        param="energy_weight",
        fields={"value": "mean_value"},
        headline=lambda report: [],
        axis_metric=("n", "instances", "d"),
        extras=lambda results: ({}, {}),
    )
    report = sweep.run(
        smoke_matrix(), CampaignConfig(seed=1, max_anomalies=3), workers=1
    )
    assert report.instances == 16
    assert report.audit["reference_checks"] == 16
    assert report.audit["anomaly_count"] == 32
    assert len(report.audit["anomalies"]) == 3
    assert report.audit["ok"] is False
    assert not report.ok
    assert report.format().startswith("fake: 16 instances")
    # None values are skipped, not averaged in as zeros
    mean = report.totals["mean_value"]
    assert mean is not None and 0.0 <= mean < 0.5
