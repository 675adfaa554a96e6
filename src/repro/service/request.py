"""Admission request/response model + wire codec for the ODM service.

An :class:`AdmissionRequest` is what an online client sends: a task set
it wants admitted, plus its current per-server response-time estimates.
The estimate for server ``s`` is a positive *scale factor* applied to
every candidate ``r_{i,j}`` of every task's benefit function when the
offload would go to ``s`` — the online analogue of the §6.2 estimation
accuracy ratio: a server currently believed twice as slow doubles every
candidate ``R_i`` (shrinking the Theorem 3 slack ``D_i − R_i``), a fast
edge box shrinks them.

The decision problem for one request is exactly the topology-form MCKP
of :func:`repro.core.odm.build_mckp`: one class per task whose items are
the local point plus, per *allowed* server, that server's scaled
feasible benefit points.  :func:`build_request_instance` performs that
reduction; the service's degradation ladder controls which servers are
allowed.

Everything round-trips through plain-JSON dicts (``to_dict`` /
``from_dict``) so the same objects flow through the in-process API and
the binary-framed TCP protocol of ``repro serve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.benefit import (
    BenefitFunction,
    BenefitPoint,
    scale_response_times,
)
from ..core.odm import build_mckp
from ..core.task import OffloadableTask, Task, TaskSet
from ..knapsack import MCKPInstance

__all__ = [
    "AdmissionRequest",
    "AdmissionResponse",
    "REQUEST_STATUSES",
    "build_request_instance",
    "task_to_dict",
    "task_from_dict",
]

#: Terminal statuses a request can resolve to.  ``shed`` means the
#: request never reached a solver: backpressure rejected it at the door.
REQUEST_STATUSES = ("admitted", "rejected", "shed")


# ----------------------------------------------------------------------
# task (de)serialization
# ----------------------------------------------------------------------
def task_to_dict(task: Task) -> Dict[str, object]:
    """Plain-JSON representation of a task (offloadable or not)."""
    record: Dict[str, object] = {
        "task_id": task.task_id,
        "wcet": task.wcet,
        "period": task.period,
        "deadline": task.deadline,
        "weight": task.weight,
    }
    if isinstance(task, OffloadableTask):
        record.update(
            offloadable=True,
            setup_time=task.setup_time,
            compensation_time=task.compensation_time,
            post_time=task.post_time,
            server_response_bound=task.server_response_bound,
            benefit=[
                {
                    "response_time": p.response_time,
                    "benefit": p.benefit,
                    "setup_time": p.setup_time,
                    "compensation_time": p.compensation_time,
                    "label": p.label,
                    "energy": p.energy,
                }
                for p in task.benefit.points
            ],
        )
    else:
        record["offloadable"] = False
    return record


def task_from_dict(record: Mapping[str, object]) -> Task:
    """Inverse of :func:`task_to_dict` (validates via the constructors)."""
    common = dict(
        task_id=str(record["task_id"]),
        wcet=float(record["wcet"]),
        period=float(record["period"]),
        deadline=float(record["deadline"]),
        weight=float(record.get("weight", 1.0)),
    )
    if not record.get("offloadable"):
        return Task(**common)
    points = [
        BenefitPoint(
            response_time=float(p["response_time"]),
            benefit=float(p["benefit"]),
            setup_time=(
                None if p.get("setup_time") is None
                else float(p["setup_time"])
            ),
            compensation_time=(
                None if p.get("compensation_time") is None
                else float(p["compensation_time"])
            ),
            label=str(p.get("label", "")),
            energy=(
                None if p.get("energy") is None else float(p["energy"])
            ),
        )
        for p in record["benefit"]  # type: ignore[union-attr]
    ]
    bound = record.get("server_response_bound")
    return OffloadableTask(
        **common,
        setup_time=float(record["setup_time"]),
        compensation_time=float(record["compensation_time"]),
        post_time=float(record.get("post_time", 0.0)),
        server_response_bound=None if bound is None else float(bound),
        benefit=BenefitFunction(points),
    )


# ----------------------------------------------------------------------
# request / response
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdmissionRequest:
    """One admission attempt: a task set + per-server ``R_i`` estimates.

    ``server_estimates`` maps server id → positive response-time scale
    factor (see :func:`scale_response_times`).  An empty mapping means
    the client only asks for local admission.
    """

    request_id: str
    tasks: TaskSet
    server_estimates: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.request_id:
            raise ValueError("request_id must be non-empty")
        if len(self.tasks) == 0:
            raise ValueError(
                f"{self.request_id}: cannot admit an empty task set"
            )
        for server_id, scale in self.server_estimates.items():
            if not server_id:
                raise ValueError("server ids must be non-empty")
            if not (math.isfinite(scale) and scale > 0):
                raise ValueError(
                    f"{self.request_id}: estimate for {server_id!r} "
                    f"must be finite and positive, got {scale}"
                )

    def to_dict(self) -> Dict[str, object]:
        return {
            "request_id": self.request_id,
            "tasks": [task_to_dict(t) for t in self.tasks],
            "server_estimates": dict(self.server_estimates),
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "AdmissionRequest":
        return cls(
            request_id=str(record["request_id"]),
            tasks=TaskSet(
                task_from_dict(t)
                for t in record["tasks"]  # type: ignore[union-attr]
            ),
            server_estimates={
                str(k): float(v)
                for k, v in dict(record.get("server_estimates") or {}).items()
            },
        )


def build_request_instance(
    request: AdmissionRequest,
    allowed_servers: Mapping[str, float],
) -> MCKPInstance:
    """The multi-server MCKP for ``request`` restricted to some servers.

    ``allowed_servers`` is the subset of ``request.server_estimates``
    the degradation ladder still permits (open circuit breakers remove
    servers; the local-only rung passes an empty mapping, leaving only
    the mandatory local items).
    """
    server_benefits = {
        server_id: {
            task.task_id: scale_response_times(task.benefit, scale)
            for task in request.tasks.offloadable_tasks
        }
        for server_id, scale in allowed_servers.items()
    }
    return build_mckp(request.tasks, topology=server_benefits)


@dataclass(frozen=True)
class AdmissionResponse:
    """The service's answer to one :class:`AdmissionRequest`.

    ``placements`` maps every task id to ``(server_id-or-None, R_i)``
    (``(None, 0.0)`` = local execution); empty for non-admitted
    requests.  ``degradation`` names the ladder rung the request was
    served at (``"exact"``, ``"heuristic"`` or ``"local_only"``) and
    ``allowed_servers`` the estimates actually offered to the solver —
    together they let an external auditor re-derive and re-verify the
    decision bit-for-bit (the loadgen does exactly that).
    ``latency`` is the wall-clock submit→response time in seconds.
    """

    request_id: str
    status: str
    placements: Mapping[str, Tuple[Optional[str], float]] = field(
        default_factory=dict
    )
    expected_benefit: float = 0.0
    total_demand_rate: float = 0.0
    degradation: str = "exact"
    solver: str = "dp"
    allowed_servers: Mapping[str, float] = field(default_factory=dict)
    latency: float = 0.0
    batch_size: int = 0
    #: id of the ODM service replica that produced the decision
    replica: str = ""

    def __post_init__(self) -> None:
        if self.status not in REQUEST_STATUSES:
            raise ValueError(
                f"unknown status {self.status!r}; "
                f"expected one of {REQUEST_STATUSES}"
            )

    @property
    def admitted(self) -> bool:
        return self.status == "admitted"

    @property
    def response_times(self) -> Dict[str, float]:
        """The plain ``task_id -> R_i`` map the scheduler consumes."""
        return {tid: r for tid, (_, r) in self.placements.items()}

    @property
    def offloaded_task_ids(self) -> List[str]:
        return sorted(
            tid for tid, (_, r) in self.placements.items() if r > 0
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "request_id": self.request_id,
            "status": self.status,
            "placements": {
                tid: [server, r]
                for tid, (server, r) in self.placements.items()
            },
            "expected_benefit": self.expected_benefit,
            "total_demand_rate": self.total_demand_rate,
            "degradation": self.degradation,
            "solver": self.solver,
            "allowed_servers": dict(self.allowed_servers),
            "latency": self.latency,
            "batch_size": self.batch_size,
            "replica": self.replica,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "AdmissionResponse":
        placements = {
            str(tid): (
                None if pair[0] is None else str(pair[0]),
                float(pair[1]),
            )
            for tid, pair in dict(record.get("placements") or {}).items()
        }
        return cls(
            request_id=str(record["request_id"]),
            status=str(record["status"]),
            placements=placements,
            expected_benefit=float(record.get("expected_benefit", 0.0)),
            total_demand_rate=float(record.get("total_demand_rate", 0.0)),
            degradation=str(record.get("degradation", "exact")),
            solver=str(record.get("solver", "dp")),
            allowed_servers={
                str(k): float(v)
                for k, v in dict(record.get("allowed_servers") or {}).items()
            },
            latency=float(record.get("latency", 0.0)),
            batch_size=int(record.get("batch_size", 0)),
            replica=str(record.get("replica", "")),
        )
