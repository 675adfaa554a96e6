"""Core contribution of the paper: task model, deadline splitting,
schedulability analysis and the Offloading Decision Manager."""

from .benefit import BenefitFunction, BenefitPoint
from .deadlines import SubJobDeadlines, split_deadlines
from .dbf import (
    ProcessorDemandResult,
    dbf_local_linear_bound,
    dbf_offloaded_linear_bound,
    dbf_offloaded_steps,
    dbf_sporadic,
    demand_checkpoints,
    processor_demand_test,
)
from .odm import (
    DEFAULT_SERVER,
    OffloadingDecision,
    OffloadingDecisionManager,
    build_mckp,
    one_node_topology,
)
from .schedulability import (
    OffloadAssignment,
    SchedulabilityResult,
    exact_demand_test,
    local_edf_test,
    theorem3_test,
)
from .task import OffloadableTask, Task, TaskSet

__all__ = [
    "Task",
    "OffloadableTask",
    "TaskSet",
    "BenefitFunction",
    "BenefitPoint",
    "SubJobDeadlines",
    "split_deadlines",
    "dbf_sporadic",
    "dbf_local_linear_bound",
    "dbf_offloaded_linear_bound",
    "dbf_offloaded_steps",
    "demand_checkpoints",
    "processor_demand_test",
    "ProcessorDemandResult",
    "OffloadAssignment",
    "SchedulabilityResult",
    "theorem3_test",
    "exact_demand_test",
    "local_edf_test",
    "OffloadingDecision",
    "OffloadingDecisionManager",
    "build_mckp",
    "DEFAULT_SERVER",
    "one_node_topology",
]
