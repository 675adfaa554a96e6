"""Schedulers on the discrete-event substrate.

The centerpiece is :class:`~repro.sched.offload_scheduler.OffloadingScheduler`
implementing the paper's split-deadline EDF algorithm (and the naive-EDF
baseline via ``deadline_mode="naive"``).  Fixed-priority scheduling and
its response-time analyses are provided as the comparison substrate.
"""

from .exec_time import ExecutionTimeModel, UniformScaleModel, WcetModel
from .fixed_priority import (
    FixedPriorityScheduler,
    deadline_monotonic_order,
    rate_monotonic_order,
    response_time_analysis,
    suspension_oblivious_rta,
)
from .jobs import Job, SubJob
from .offload_scheduler import DEADLINE_MODES, OffloadingScheduler
from .overhead import inflate_for_overhead
from .ready_queue import EDFReadyQueue
from .transport import (
    DistributionTransport,
    FixedLatencyTransport,
    NeverRespondsTransport,
    OffloadRequest,
    OffloadTransport,
    RoutingTransport,
    StaircaseTransport,
)
from .uniprocessor import Uniprocessor
from .validator import Violation, validate_schedule

__all__ = [
    "Job",
    "SubJob",
    "EDFReadyQueue",
    "Uniprocessor",
    "OffloadingScheduler",
    "DEADLINE_MODES",
    "OffloadRequest",
    "OffloadTransport",
    "FixedLatencyTransport",
    "DistributionTransport",
    "NeverRespondsTransport",
    "RoutingTransport",
    "StaircaseTransport",
    "ExecutionTimeModel",
    "WcetModel",
    "UniformScaleModel",
    "FixedPriorityScheduler",
    "rate_monotonic_order",
    "deadline_monotonic_order",
    "response_time_analysis",
    "suspension_oblivious_rta",
    "validate_schedule",
    "inflate_for_overhead",
    "Violation",
]
