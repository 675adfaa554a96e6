"""The admission correctness gate, without a server.

Answers are built the way the service builds them: the serial
``solve_dp`` selection on the request's instance.
"""

from dataclasses import replace

import admit
from repro.knapsack import solve_dp
from repro.service import AdmissionResponse, build_request_instance

SPEC = admit.SPECS["admit-churn"]


def answer(request, pick=None):
    allowed = dict(sorted(request.server_estimates.items()))
    instance = build_request_instance(request, allowed)
    selection = solve_dp(instance, resolution=admit.RESOLUTION)
    placements = {
        cls.class_id: selection.item_for(cls.class_id).tag
        for cls in instance.classes
    }
    if pick is not None:
        placements.update(pick(instance))
    return AdmissionResponse(
        request_id=request.request_id,
        status="admitted",
        placements={k: (s, float(r)) for k, (s, r) in placements.items()},
        expected_benefit=selection.total_value,
        allowed_servers=allowed,
    )


def calls_for(requests, **kwargs):
    return [
        admit.Call(i, r, answer(r, **kwargs), 0.0, 0.001)
        for i, r in enumerate(requests)
    ]


def test_inputs_are_seeded():
    a = admit.build_inputs(SPEC, 3, 0.05)
    b = admit.build_inputs(SPEC, 3, 0.05)
    assert [r.request_id for r in a[1]] == [r.request_id for r in b[1]]
    assert len(a[0]) == SPEC.unique_sets * 4  # every set × profile


def test_serial_answers_pass_the_gate():
    _warm, trace = admit.build_inputs(SPEC, 1, 0.05)
    outcome, _ = admit.check(calls_for(trace[:12]), SPEC, seed=1)
    assert outcome.attempted == 12
    assert outcome.failed == 0


def test_solve_dp_argmax_tie_is_not_an_anomaly():
    # request 282 of seed 1 is a known tie: solve_dp and the reference
    # pick different servers for one task at equal value and weight
    _warm, trace = admit.build_inputs(SPEC, 1, 0.3)
    call = calls_for([trace[282]])[0]
    assert admit.documented_tie(call)
    outcome, _ = admit.check([call], SPEC, seed=1)
    assert outcome.anomalies == 0


def test_wrong_answer_is_an_anomaly_even_with_theorem3_holding():
    _warm, trace = admit.build_inputs(SPEC, 1, 0.05)
    # everything local: feasible whenever the set is, but not optimal
    local = calls_for(
        trace[:1],
        pick=lambda inst: {c.class_id: (None, 0.0) for c in inst.classes},
    )
    assert not admit.documented_tie(local[0])
    outcome, problems = admit.check(local, SPEC, seed=1)
    assert outcome.anomalies == 1
    assert any("placements differ" in p for p in problems)


def test_unanswered_and_shed_count_as_failed():
    _warm, trace = admit.build_inputs(SPEC, 1, 0.05)
    good = calls_for(trace[:3])
    shed = good[1]._replace(
        response=replace(good[1].response, status="shed", placements={})
    )
    lost = good[2]._replace(response=None)
    outcome, _ = admit.check([good[0], shed, lost], SPEC, seed=1)
    assert (outcome.attempted, outcome.shed, outcome.errors) == (3, 1, 1)
    assert outcome.failed_frac == 2 / 3


def test_disagreeing_answers_to_one_instance_are_anomalies():
    _warm, trace = admit.build_inputs(admit.SPECS["admit-hot"], 1, 0.05)
    first = calls_for(trace[:1])[0]
    again = first._replace(
        index=1,
        request=replace(first.request, request_id="again"),
        response=replace(first.response, request_id="again",
                         expected_benefit=0.0),
    )
    outcome, problems = admit.check(
        [first, again], admit.SPECS["admit-hot"], seed=1)
    assert outcome.anomalies == 1
    assert any("differs from" in p for p in problems)
