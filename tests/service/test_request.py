"""Request/response model: validation, wire round-trips, the per-request
MCKP reduction, and estimate scaling properties."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.benefit import (
    BenefitFunction,
    BenefitPoint,
    scale_response_times,
)
from repro.core.task import Task, TaskSet
from repro.service import (
    AdmissionRequest,
    AdmissionResponse,
    build_request_instance,
    task_from_dict,
    task_to_dict,
)


@pytest.fixture
def fn():
    return BenefitFunction(
        [
            BenefitPoint(0.0, 1.0),
            BenefitPoint(0.10, 2.0, setup_time=0.03),
            BenefitPoint(0.25, 4.0, label="hi"),
        ]
    )


# ----------------------------------------------------------------------
# estimate scaling
# ----------------------------------------------------------------------
def test_scale_identity_returns_same_object(fn):
    assert scale_response_times(fn, 1.0) is fn


def test_scale_rejects_non_positive(fn):
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            scale_response_times(fn, bad)


def test_scale_stretches_only_non_local_points(fn):
    scaled = scale_response_times(fn, 2.0)
    assert scaled.points[0].response_time == 0.0
    assert scaled.points[0].benefit == 1.0
    assert scaled.points[1].response_time == pytest.approx(0.20)
    assert scaled.points[2].response_time == pytest.approx(0.50)
    # benefit values and per-level overrides survive
    assert [p.benefit for p in scaled.points] == [1.0, 2.0, 4.0]
    assert scaled.points[1].setup_time == 0.03
    assert scaled.points[2].label == "hi"


@given(factor=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=50)
def test_scale_is_monotone_and_composable(factor):
    fn = BenefitFunction(
        [BenefitPoint(0.0, 0.5), BenefitPoint(0.1, 1.0),
         BenefitPoint(0.3, 2.0)]
    )
    scaled = scale_response_times(fn, factor)
    times = [p.response_time for p in scaled.points]
    assert times == sorted(times)
    assert all(math.isfinite(t) for t in times)
    back = scale_response_times(scaled, 1.0 / factor)
    for p, q in zip(fn.points, back.points):
        assert q.response_time == pytest.approx(p.response_time)


# ----------------------------------------------------------------------
# wire codec
# ----------------------------------------------------------------------
def test_task_round_trip(offload_task, local_task):
    for task in (offload_task, local_task):
        clone = task_from_dict(task_to_dict(task))
        assert task_to_dict(clone) == task_to_dict(task)
        assert type(clone) is type(task)


def test_request_round_trip(small_task_set):
    request = AdmissionRequest(
        request_id="r1",
        tasks=small_task_set,
        server_estimates={"edge": 1.1, "cloud": 0.9},
    )
    clone = AdmissionRequest.from_dict(request.to_dict())
    assert clone.to_dict() == request.to_dict()


def test_request_validation(small_task_set):
    with pytest.raises(ValueError):
        AdmissionRequest(request_id="", tasks=small_task_set)
    with pytest.raises(ValueError):
        AdmissionRequest(request_id="r", tasks=TaskSet())
    with pytest.raises(ValueError):
        AdmissionRequest(
            request_id="r", tasks=small_task_set,
            server_estimates={"edge": 0.0},
        )


def test_response_round_trip_and_views():
    response = AdmissionResponse(
        request_id="r1",
        status="admitted",
        placements={"a": ("edge", 0.2), "b": (None, 0.0)},
        expected_benefit=4.0,
        total_demand_rate=0.7,
        degradation="exact",
        solver="dp",
        allowed_servers={"edge": 1.0},
        latency=0.003,
        batch_size=4,
    )
    assert response.admitted
    assert response.response_times == {"a": 0.2, "b": 0.0}
    assert response.offloaded_task_ids == ["a"]
    clone = AdmissionResponse.from_dict(response.to_dict())
    assert clone.to_dict() == response.to_dict()
    assert clone.placements["b"] == (None, 0.0)


def test_response_rejects_unknown_status():
    with pytest.raises(ValueError):
        AdmissionResponse(request_id="r", status="maybe")


# ----------------------------------------------------------------------
# the per-request MCKP reduction
# ----------------------------------------------------------------------
def test_instance_has_one_class_per_task(small_task_set):
    request = AdmissionRequest(
        request_id="r", tasks=small_task_set,
        server_estimates={"edge": 1.0},
    )
    instance = build_request_instance(request, request.server_estimates)
    assert sorted(c.class_id for c in instance.classes) == sorted(
        t.task_id for t in small_task_set
    )
    # the non-offloadable task only has its mandatory local item
    local_cls = instance.class_by_id("loc1")
    assert len(local_cls.items) == 1
    assert local_cls.items[0].tag == (None, 0.0)
    # the offloadable one carries (server, r)-tagged items
    off_cls = instance.class_by_id("off1")
    assert len(off_cls.items) > 1
    assert {tag[0] for tag in (i.tag for i in off_cls.items)} <= {
        None, "edge",
    }


def test_empty_allowed_servers_leaves_local_items_only(small_task_set):
    request = AdmissionRequest(
        request_id="r", tasks=small_task_set,
        server_estimates={"edge": 1.0},
    )
    instance = build_request_instance(request, {})
    assert all(len(c.items) == 1 for c in instance.classes)
    assert all(c.items[0].tag == (None, 0.0) for c in instance.classes)


def test_slow_estimates_shrink_the_feasible_item_set(small_task_set):
    """A slower believed server stretches every candidate R_i, so items
    fall off the deadline cliff and per-item demand rates grow."""
    request = AdmissionRequest(
        request_id="r", tasks=small_task_set,
        server_estimates={"edge": 1.0},
    )
    fast = build_request_instance(request, {"edge": 1.0})
    slow = build_request_instance(request, {"edge": 20.0})
    fast_items = fast.class_by_id("off1").items
    slow_items = slow.class_by_id("off1").items
    assert len(slow_items) <= len(fast_items)
    fast_weights = {i.tag[1]: i.weight for i in fast_items if i.tag[1] > 0}
    for item in slow_items:
        server, r = item.tag
        if server is None:
            continue
        original_r = r / 20.0
        if original_r in fast_weights:
            assert item.weight >= fast_weights[original_r]
