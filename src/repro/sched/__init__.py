"""Schedulers on the discrete-event substrate.

The centerpiece is :class:`~repro.sched.offload_scheduler.OffloadingScheduler`
implementing the paper's split-deadline EDF algorithm (and the naive-EDF
baseline via ``deadline_mode="naive"``) on a preemptive EDF
:class:`~repro.sched.uniprocessor.Uniprocessor`.
"""

from .exec_time import ExecutionTimeModel, UniformScaleModel, WcetModel
from .jobs import Job, SubJob
from .offload_scheduler import DEADLINE_MODES, OffloadingScheduler
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
]
