"""The three GPU-server scenarios of Figure 2.

§6.1.3 evaluates the mechanism under three contention regimes:

1. **busy** — "the GPU server ... is busy to process other applications.
   Only a small number of offloaded tasks can get computation results";
2. **not busy** — "it still processes some other applications.  A part of
   offloaded tasks can get computation results successfully";
3. **idle** — "it only process[es] these offloaded tasks.  A large number
   of offloaded tasks can get computation results".

A :class:`ServerScenario` bundles the hardware configuration (two GPUs,
per the Tesla M2050 pair of §6.1.1), the wireless channel, and the
background offered load that distinguishes the regimes.  The background
loads are calibrated against the 2 reference-GPU-seconds/second capacity
of the device pool: idle offers 0, not-busy ≈ 45 %, busy ≈ 150 %
(saturated — queues grow without bound, so in-budget results become
rare), reproducing the qualitative orderings of Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from .background import BackgroundLoadGenerator
from .gpu import GpuDevice
from .network import NetworkChannel
from .proxy import GpuServerProxy
from .transport import (
    GpuServerTransport,
    ResponseTimeCalibratedWork,
    WorkModel,
)

__all__ = ["ServerScenario", "SCENARIOS", "resolve_scenario", "build_server"]


@dataclass(frozen=True)
class ServerScenario:
    """A named server/network contention configuration."""

    name: str
    description: str
    num_gpus: int = 2
    gpu_speed: float = 1.0
    gpu_interference_sigma: float = 0.20
    bandwidth: float = 2.5e6  # bytes/s (~20 Mbit/s wireless)
    base_latency: float = 0.002
    jitter_scale: float = 0.003
    jitter_sigma: float = 0.8
    loss_probability: float = 0.005
    background_rate: float = 0.0  # kernels per second
    background_mean_work: float = 0.08  # GPU-seconds per kernel

    @property
    def background_offered_load(self) -> float:
        """Background GPU-seconds offered per second."""
        return self.background_rate * self.background_mean_work

    @property
    def capacity(self) -> float:
        """GPU-seconds the device pool can absorb per second."""
        return self.num_gpus * self.gpu_speed

    @property
    def background_utilization(self) -> float:
        return self.background_offered_load / self.capacity


#: The Figure 2 regimes.  Ordered from most to least contended.
SCENARIOS: Dict[str, ServerScenario] = {
    "busy": ServerScenario(
        name="busy",
        description=(
            "GPU server saturated by other applications; only a small "
            "number of offloaded tasks get results in time"
        ),
        background_rate=25.0,
        background_mean_work=0.12,  # offered 3.0 > capacity 2.0
    ),
    "not_busy": ServerScenario(
        name="not_busy",
        description=(
            "GPU server moderately loaded; a part of offloaded tasks get "
            "results in time"
        ),
        background_rate=11.0,
        background_mean_work=0.08,  # offered 0.88 ~ 44% of capacity
    ),
    "idle": ServerScenario(
        name="idle",
        description=(
            "GPU server only processes the offloaded tasks; a large "
            "number get results in time"
        ),
        background_rate=0.0,
    ),
}


def resolve_scenario(scenario: "ServerScenario | str") -> ServerScenario:
    """``scenario`` itself, or the preset it names."""
    if isinstance(scenario, ServerScenario):
        return scenario
    if scenario not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {scenario!r}; presets: {sorted(SCENARIOS)}"
        )
    return SCENARIOS[scenario]


@dataclass
class BuiltServer:
    """Everything :func:`build_server` wires together."""

    scenario: ServerScenario
    transport: GpuServerTransport
    proxy: GpuServerProxy
    background: Optional[BackgroundLoadGenerator]
    uplink: NetworkChannel
    downlink: NetworkChannel


def build_server(
    sim: Simulator,
    scenario: "ServerScenario | str",
    streams: RandomStreams,
    work_model: Optional[WorkModel] = None,
    start_background: bool = True,
) -> BuiltServer:
    """Instantiate the full server stack for ``scenario`` (a
    :class:`ServerScenario` or a preset name) on ``sim``.

    Random draws use streams namespaced per component so scenarios are
    comparable under a common seed.
    """
    scenario = resolve_scenario(scenario)
    devices = [
        GpuDevice(
            sim,
            name=f"gpu{idx}",
            speed=scenario.gpu_speed,
            interference_sigma=scenario.gpu_interference_sigma,
            rng=streams.get(f"gpu{idx}"),
        )
        for idx in range(scenario.num_gpus)
    ]
    proxy = GpuServerProxy(sim, devices)

    uplink = NetworkChannel(
        bandwidth=scenario.bandwidth,
        base_latency=scenario.base_latency,
        jitter_scale=scenario.jitter_scale,
        jitter_sigma=scenario.jitter_sigma,
        loss_probability=scenario.loss_probability,
        rng=streams.get("uplink"),
    )
    downlink = NetworkChannel(
        bandwidth=scenario.bandwidth,
        base_latency=scenario.base_latency,
        jitter_scale=scenario.jitter_scale,
        jitter_sigma=scenario.jitter_sigma,
        loss_probability=scenario.loss_probability,
        rng=streams.get("downlink"),
    )

    if work_model is None:
        work_model = ResponseTimeCalibratedWork(bandwidth=scenario.bandwidth)

    transport = GpuServerTransport(sim, proxy, uplink, downlink, work_model)

    background: Optional[BackgroundLoadGenerator] = None
    if scenario.background_rate > 0:
        background = BackgroundLoadGenerator(
            sim,
            proxy,
            arrival_rate=scenario.background_rate,
            rng=streams.get("background"),
            mean_work=scenario.background_mean_work,
        )
        if start_background:
            background.start()

    return BuiltServer(
        scenario=scenario,
        transport=transport,
        proxy=proxy,
        background=background,
        uplink=uplink,
        downlink=downlink,
    )
