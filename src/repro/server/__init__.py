"""The timing unreliable component: GPU server + wireless network.

Substitutes the paper's physical testbed (two Tesla M2050 GPUs behind an
rCUDA-style proxy on a local wireless network) with a calibrated
discrete-event queueing model.  See DESIGN.md §2 for the substitution
rationale.
"""

from .background import BackgroundLoadGenerator
from .gpu import GpuDevice, KernelWork
from .network import NetworkChannel
from .proxy import GpuServerProxy
from .scenarios import SCENARIOS, BuiltServer, ServerScenario, build_server
from .transport import (
    GpuServerTransport,
    ResponseTimeCalibratedWork,
    WorkModel,
)

__all__ = [
    "NetworkChannel",
    "GpuDevice",
    "KernelWork",
    "GpuServerProxy",
    "BackgroundLoadGenerator",
    "GpuServerTransport",
    "ResponseTimeCalibratedWork",
    "WorkModel",
    "ServerScenario",
    "SCENARIOS",
    "BuiltServer",
    "build_server",
]
