"""Serial-reference audit of admission responses (shared notary).

Every serving surface in this repo — the single-replica loadgen
(:mod:`repro.service.loadgen`) and the multi-replica fleet campaign
(:mod:`repro.fleet.campaign`) — must hold its traffic to the same
standard: an admitted response is only correct if the offline ground
truth agrees.  This module is that shared standard, factored out so the
Theorem-3 re-check is written exactly once:

* an *admitted* response must pass Theorem 3 when re-checked from the
  raw request (the deadline-guarantee invariant — zero tolerance);
* an ``exact``-rung response must meet the DP contract (DESIGN.md
  §10) against :func:`repro.knapsack.solve_dp_reference`: the same
  optimal value at the same minimal quantized weight — not the same
  argmax, which equal optima leave open;
* a degraded response (``heuristic``/``local_only``) must agree with
  the exact reference on *admissibility*: degradation may cost
  benefit, never flip an exact-path rejection into an admission (or
  vice versa), modulo the documented one-quantization-unit boundary.

:func:`measure_serial_baseline` models the no-batching, no-cache serial
server the latency percentiles are compared against.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional

from ..core.schedulability import OffloadAssignment, theorem3_test
from ..knapsack import MCKPInstance, Selection, solve_dp_reference
from ..knapsack.dp import _quantize_weight, values_close
from ..observability.metrics import percentile  # noqa: F401 (re-export)
from .request import (
    AdmissionRequest,
    AdmissionResponse,
    build_request_instance,
)

__all__ = [
    "audit_response",
    "measure_serial_baseline",
]


def _quantized_weight(selection: Selection, resolution: int) -> int:
    """The selection's weight in the DP's integer capacity units."""
    unit = selection.instance.capacity / resolution
    return sum(
        _quantize_weight(selection.item_for(cls.class_id).weight, unit)
        for cls in selection.instance.classes
    )


def _as_selection(
    instance: MCKPInstance, placements
) -> Optional[Selection]:
    """The instance's selection that ``placements`` name, if any."""
    if len(placements) != len(instance.classes):
        return None
    choices = {}
    for cls in instance.classes:
        tags = [item.tag for item in cls.items]
        placement = tuple(placements.get(cls.class_id, ()))
        if placement not in tags:
            return None
        choices[cls.class_id] = tags.index(placement)
    return Selection(instance, choices)


def audit_response(
    request: AdmissionRequest,
    response: AdmissionResponse,
    resolution: int = 20_000,
) -> List[str]:
    """Offline re-verification of one decision; returns anomaly strings.

    Checks (1) the Theorem 3 deadline guarantee of every admission, (2)
    the DP contract of exact-rung answers against
    :func:`solve_dp_reference` — feasibility, optimal value and minimal
    quantized weight, (3) admissibility agreement of degraded answers
    with the exact reference on the instance the service actually
    offered (``response.allowed_servers``).
    """
    anomalies: List[str] = []
    rid = response.request_id
    if response.status == "shed":
        return anomalies

    if response.admitted:
        assignments = [
            OffloadAssignment(tid, r)
            for tid, (_server, r) in response.placements.items()
            if r > 0
        ]
        check = theorem3_test(request.tasks, assignments)
        if not check.feasible:
            anomalies.append(
                f"{rid}: admitted but Theorem 3 fails "
                f"(demand rate {check.total_demand_rate:.6f})"
            )

    instance = build_request_instance(request, response.allowed_servers)
    reference = solve_dp_reference(instance, resolution=resolution)

    if response.admitted != (reference is not None):
        # The ceil-quantized DP may reject a borderline set whose true
        # weight fits; a *degraded* rung admitting there is sound (the
        # Theorem 3 check above certifies it) as long as the demand
        # rate sits within one quantization unit per class of the
        # capacity.  Everything else is a real divergence.
        quantization_slack = (
            instance.capacity * (len(instance.classes) + 1) / resolution
            + 1e-9
        )
        boundary_admission = (
            response.admitted
            and reference is None
            and response.degradation != "exact"
            and response.total_demand_rate
            >= instance.capacity - quantization_slack
        )
        if not boundary_admission:
            anomalies.append(
                f"{rid}: status {response.status!r} at rung "
                f"{response.degradation!r} but exact reference says "
                f"{'feasible' if reference is not None else 'infeasible'}"
            )
        return anomalies

    if response.degradation == "exact" and reference is not None:
        selection = _as_selection(instance, response.placements)
        if selection is None:
            anomalies.append(
                f"{rid}: exact placements differ from every selection "
                "of the instance"
            )
        elif not values_close(selection.total_value, reference.total_value):
            anomalies.append(
                f"{rid}: exact placements differ from reference optimum "
                f"{selection.total_value!r} != {reference.total_value!r}"
            )
        else:
            weight = _quantized_weight(selection, resolution)
            minimal = _quantized_weight(reference, resolution)
            if weight != minimal:
                anomalies.append(
                    f"{rid}: exact placements differ from reference "
                    f"minimal quantized weight {weight} != {minimal}"
                )
        if not values_close(
            response.expected_benefit, reference.total_value
        ):
            anomalies.append(
                f"{rid}: exact benefit {response.expected_benefit!r} != "
                f"reference {reference.total_value!r}"
            )
    return anomalies


def measure_serial_baseline(
    bursts, resolution: int = 20_000
) -> List[float]:
    """Per-request latency of a no-batching, no-cache serial server.

    Each burst's requests are solved one after another with the exact
    DP; request ``k``'s latency is the queueing sum of solves 0..k —
    what a client of a naive serial service would observe.
    """
    latencies: List[float] = []
    for burst in bursts:
        elapsed = 0.0
        for request in burst.requests:
            started = perf_counter()
            solve_dp_reference(
                build_request_instance(request, request.server_estimates),
                resolution=resolution,
            )
            elapsed += perf_counter() - started
            latencies.append(elapsed)
    return latencies

