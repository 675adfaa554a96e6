"""Transport abstraction between the client scheduler and the server.

The split-deadline scheduler hands completed setup sub-jobs to an
:class:`OffloadTransport`, which eventually reports the server's result
(or never does — the timing unreliable case the whole mechanism exists
for).  The full server model lives in :mod:`repro.server`; this module
defines the interface, small transports used by tests and ablations,
and :class:`RoutingTransport`, which steers each task's requests to
the server a multi-server decision routed it to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Protocol

import numpy as np

from ..sim.engine import Simulator
from ..core.task import OffloadableTask

__all__ = [
    "OffloadRequest",
    "OffloadTransport",
    "FixedLatencyTransport",
    "DistributionTransport",
    "StaircaseTransport",
    "NeverRespondsTransport",
    "RoutingTransport",
]


@dataclass
class OffloadRequest:
    """An offloaded computation in flight.

    ``response_budget`` is the ``R_i`` the client selected; transports
    may ignore it (the server does not know the client's timer) but the
    field is useful for logging and for oracle transports in tests.
    ``level_response_time`` identifies which benefit point was selected,
    so the server model can scale the work size with the image level.
    """

    task: OffloadableTask
    job_id: int
    submitted_at: float
    response_budget: float
    level_response_time: float

    @property
    def key(self) -> tuple:
        return (self.task.task_id, self.job_id)


class OffloadTransport(Protocol):
    """Anything that can carry an offload request and call back with the
    result arrival time."""

    def submit(
        self, request: OffloadRequest, on_result: Callable[[float], None]
    ) -> None:
        """Dispatch ``request``; invoke ``on_result(arrival_time)`` when
        (if ever) the result reaches the client."""
        ...


class FixedLatencyTransport:
    """Deterministic transport: every result arrives after ``latency``.

    The workhorse of the scheduler unit tests — with latency < R_i every
    offload succeeds; with latency > R_i every offload compensates.
    """

    def __init__(self, sim: Simulator, latency: float) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.latency = latency
        self.submitted = 0

    def submit(
        self, request: OffloadRequest, on_result: Callable[[float], None]
    ) -> None:
        self.submitted += 1
        self.sim.schedule(
            self.latency,
            lambda ev: on_result(ev.time),
            name=f"result:{request.task.task_id}#{request.job_id}",
        )


class DistributionTransport:
    """Stochastic transport: latency drawn from a callable, optional loss.

    ``latency_sampler`` is called with no arguments and must return a
    non-negative float; ``loss_probability`` is the chance the result
    never arrives at all.
    """

    def __init__(
        self,
        sim: Simulator,
        latency_sampler: Callable[[], float],
        loss_probability: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        self.sim = sim
        self.latency_sampler = latency_sampler
        self.loss_probability = loss_probability
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.submitted = 0
        self.lost = 0

    def submit(
        self, request: OffloadRequest, on_result: Callable[[float], None]
    ) -> None:
        self.submitted += 1
        if self.loss_probability and self.rng.random() < self.loss_probability:
            self.lost += 1
            return
        latency = float(self.latency_sampler())
        if latency < 0:
            raise ValueError("latency sampler returned a negative value")
        self.sim.schedule(
            latency,
            lambda ev: on_result(ev.time),
            name=f"result:{request.task.task_id}#{request.job_id}",
        )


class StaircaseTransport:
    """Latencies drawn from a task's own probability-benefit staircase.

    For §6.2-style benefit functions — where ``G_i(r)`` *is* the
    probability the result arrives within ``r`` — this transport makes
    the simulation match the model exactly: for every request, the
    probability of arrival within any discretization point ``r_{i,j}``
    equals ``G_i(r_{i,j})``, and with probability ``1 − max G_i`` the
    result never arrives at all.

    Within a staircase step the latency is uniform, so arrivals are
    strictly inside the budget they land in (no boundary ties with the
    compensation timer).  Used by the integration tests that
    cross-validate the analytic objective ``Σ G_i(R_i)`` against
    DES-measured timely returns.
    """

    def __init__(
        self, sim: Simulator, rng: Optional[np.random.Generator] = None
    ) -> None:
        self.sim = sim
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.submitted = 0
        self.never_arrived = 0

    def submit(
        self, request: OffloadRequest, on_result: Callable[[float], None]
    ) -> None:
        self.submitted += 1
        benefit = request.task.benefit
        points = [p for p in benefit.points if not p.is_local]
        if not points:
            self.never_arrived += 1
            return
        u = float(self.rng.random())
        previous_r = 0.0
        for point in points:
            if not 0.0 <= point.benefit <= 1.0:
                raise ValueError(
                    "StaircaseTransport requires probability-valued "
                    f"benefits in [0, 1]; got {point.benefit}"
                )
            if u <= point.benefit:
                # arrival lands uniformly inside this step
                latency = previous_r + float(self.rng.random()) * (
                    point.response_time - previous_r
                )
                self.sim.schedule(
                    max(latency, 1e-9),
                    lambda ev: on_result(ev.time),
                    name=f"staircase:{request.task.task_id}"
                    f"#{request.job_id}",
                )
                return
            previous_r = point.response_time
        self.never_arrived += 1  # u beyond max probability: no result


class NeverRespondsTransport:
    """The fully unreliable component: results never come back.

    Exercises the guarantee the mechanism is built around — even with a
    dead server, every deadline is met through local compensation.
    """

    def __init__(self) -> None:
        self.submitted = 0

    def submit(
        self, request: OffloadRequest, on_result: Callable[[float], None]
    ) -> None:
        self.submitted += 1


class RoutingTransport:
    """Routes each request to its task's assigned server transport
    (``routes`` is :attr:`repro.core.odm.OffloadingDecision.routes`)."""

    def __init__(
        self,
        routes: Mapping[str, str],
        transports: Mapping[str, OffloadTransport],
    ) -> None:
        unknown = set(routes.values()) - set(transports)
        if unknown:
            raise ValueError(
                f"routes reference unknown servers: {sorted(unknown)}"
            )
        self.routes = dict(routes)
        self.transports = dict(transports)

    def submit(
        self, request: OffloadRequest, on_result: Callable[[float], None]
    ) -> None:
        server_id = self.routes.get(request.task.task_id)
        if server_id is None:
            raise ValueError(
                f"no route for task {request.task.task_id!r}"
            )
        self.transports[server_id].submit(request, on_result)
