"""Per-server response-time estimation over a topology.

For every (server, task) pair we run the §3.2 "coarse-grained statistic
estimation" through that server's link: sample end-to-end response times
(uplink transfer + remote compute + downlink transfer, with loss turning
into an effectively-never sample), feed them through
:class:`repro.estimator.EmpiricalResponseTimes`, and turn the empirical
percentiles into per-server benefit discretization points.

The resulting ``server_benefits`` mapping
(``server_id -> task_id -> BenefitFunction``) is exactly what
:func:`repro.core.odm.build_mckp` consumes in topology mode, and
``server_bounds`` carries each guaranteeing server's §3 response bound
so the routed MCKP re-verifies the guaranteed-result budget per server.

Benefit values are anchored to the task's own scale: a point's value
interpolates between ``G_i(0)`` (no result ever arrives) and the task's
maximum offload benefit (every result arrives in time) by the empirical
success probability at that point — so functions measured on different
servers are directly comparable inside one choice group.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..core.benefit import BenefitFunction, BenefitPoint
from ..core.task import OffloadableTask, TaskSet
from ..estimator.response_time import EmpiricalResponseTimes
from ..sim.rng import RandomStreams
from .model import ServerNode, Topology

__all__ = [
    "sample_response_times",
    "estimate_server_benefit",
    "estimate_topology_benefits",
]

#: A lost transfer never produces a result; it is recorded as this many
#: deadlines so it sits above every candidate response time.
_LOSS_FACTOR = 4.0


def sample_response_times(
    task: OffloadableTask,
    server: ServerNode,
    rng,
    num_samples: int = 128,
    payload_bytes: float = 32_768.0,
    compute_fraction: float = 0.6,
    compute_sigma: float = 0.3,
) -> EmpiricalResponseTimes:
    """Measure ``num_samples`` end-to-end response times on ``server``.

    The remote compute time is ``wcet * compute_fraction / speed``
    jittered by a lognormal factor (GPU contention); each direction pays
    the server's link delay, and a lost transfer in either direction is
    recorded as ``_LOSS_FACTOR`` deadlines — a sample that can never
    beat any feasible estimate.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    uplink = server.link.channel(rng)
    downlink = server.link.channel(rng)
    nominal = task.wcet * compute_fraction / server.speed
    samples = EmpiricalResponseTimes()
    for _ in range(num_samples):
        up = uplink.transfer_time(payload_bytes)
        compute = nominal * float(
            rng.lognormal(mean=0.0, sigma=compute_sigma)
        )
        down = downlink.transfer_time(payload_bytes)
        if uplink.is_lost() or downlink.is_lost():
            samples.add(task.deadline * _LOSS_FACTOR)
        else:
            samples.add(up + compute + down)
    return samples


def estimate_server_benefit(
    task: OffloadableTask,
    samples: EmpiricalResponseTimes,
    percentiles: Sequence[float] = (50, 75, 90, 95),
) -> BenefitFunction:
    """Turn measured samples into a per-server benefit function.

    Candidate response times are the empirical percentiles; the value at
    candidate ``r`` is
    ``G_i(0) + P(observed <= r) * (max_offload_benefit - G_i(0))``.
    Points that do not strictly improve on the previous value are
    dropped (they would be dominated in the MCKP anyway).
    """
    local = task.benefit.local_benefit
    span = task.benefit.max_benefit - local
    points = [BenefitPoint(0.0, local, label="local")]
    for r in samples.candidate_response_times(percentiles):
        if r <= 0:
            continue
        value = local + samples.success_probability(r) * span
        if value > points[-1].benefit + 1e-12:
            points.append(BenefitPoint(r, value))
    return BenefitFunction(points)


def estimate_topology_benefits(
    tasks: TaskSet,
    topology: Topology,
    streams: RandomStreams,
    num_samples: int = 128,
    percentiles: Sequence[float] = (50, 75, 90, 95),
    payload_bytes: float = 32_768.0,
    compute_fraction: float = 0.6,
    compute_sigma: float = 0.3,
) -> Tuple[
    Dict[str, Dict[str, BenefitFunction]],
    Dict[str, Dict[str, float]],
]:
    """Estimate per-server benefit functions for every offloadable task.

    Returns ``(server_benefits, server_bounds)`` ready for
    :func:`repro.core.odm.build_mckp` topology mode /
    :meth:`repro.core.odm.OffloadingDecisionManager.decide`.  Each
    (server, task) pair draws from its own named stream, so adding a
    server or a task never perturbs the samples of the others — the
    same stream-independence discipline the simulator uses.

    ``server_benefits`` iterates in topology order (insertion order is
    significant: it fixes the choice-group expansion order of the routed
    MCKP).
    """
    server_benefits: Dict[str, Dict[str, BenefitFunction]] = {}
    server_bounds: Dict[str, Dict[str, float]] = {}
    for server in topology:
        per_task: Dict[str, BenefitFunction] = {}
        bounds: Dict[str, float] = {}
        for task in tasks:
            if not isinstance(task, OffloadableTask):
                continue
            rng = streams.get(f"estimate/{server.server_id}/{task.task_id}")
            samples = sample_response_times(
                task,
                server,
                rng,
                num_samples=num_samples,
                payload_bytes=payload_bytes,
                compute_fraction=compute_fraction,
                compute_sigma=compute_sigma,
            )
            per_task[task.task_id] = estimate_server_benefit(
                task, samples, percentiles
            )
            if server.response_bound is not None:
                bounds[task.task_id] = server.response_bound
        server_benefits[server.server_id] = per_task
        if bounds:
            server_bounds[server.server_id] = bounds
    return server_benefits, server_bounds
