"""audit_response holds exact answers to the DP contract of DESIGN.md §10:
feasibility, the optimal value and the minimal quantized weight — not
the reference DP's argmax among equal optima."""

from repro.core.benefit import BenefitFunction, BenefitPoint
from repro.core.task import OffloadableTask, TaskSet
from repro.knapsack import solve_dp_reference
from repro.service import (
    AdmissionRequest,
    AdmissionResponse,
    audit_response,
    build_request_instance,
)

RESOLUTION = 2_000


def _request() -> AdmissionRequest:
    # two servers with the same estimate offer identical items, and the
    # flat benefit tail offers an equal-value, heavier level per server
    benefit = BenefitFunction([
        BenefitPoint(0.0, 1.0),
        BenefitPoint(0.2, 4.0),
        BenefitPoint(0.4, 4.0),
    ])
    tasks = TaskSet([
        OffloadableTask(
            task_id=f"t{i}", wcet=0.1, period=1.0, setup_time=0.05,
            compensation_time=0.1, post_time=0.02, benefit=benefit,
        )
        for i in range(2)
    ])
    return AdmissionRequest("req-0", tasks, {"edge": 1.0, "cloud": 1.0})


def _audit(placements):
    request = _request()
    allowed = dict(request.server_estimates)
    reference = solve_dp_reference(
        build_request_instance(request, allowed), resolution=RESOLUTION
    )
    response = AdmissionResponse(
        request_id=request.request_id,
        status="admitted",
        placements=placements,
        expected_benefit=reference.total_value,
        allowed_servers=allowed,
    )
    return reference, audit_response(request, response, RESOLUTION)


def test_tie_with_a_different_argmax_passes():
    placements = {"t0": ("cloud", 0.2), "t1": ("edge", 0.2)}
    reference, anomalies = _audit(placements)
    assert {
        cls.class_id: reference.item_for(cls.class_id).tag
        for cls in reference.instance.classes
    } != placements
    assert anomalies == []


def test_equal_value_at_a_heavier_quantized_weight_fails():
    placements = {"t0": ("edge", 0.4), "t1": ("edge", 0.2)}
    _reference, anomalies = _audit(placements)
    assert len(anomalies) == 1
    assert "minimal quantized weight" in anomalies[0]
