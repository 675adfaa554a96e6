"""The server-side dispatch proxy (the paper's rCUDA-derived software).

The case study runs "a software proxy application ... [that] can generate
multiple parallel threads to collect computations from the client and
dispatch these computations on GPUs" (§6.1.1).  Our proxy accepts
kernels — from offloading clients and from background applications alike
— and dispatches each to the least-loaded GPU.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..sim.engine import Simulator
from .gpu import GpuDevice, KernelWork

__all__ = ["GpuServerProxy"]


class GpuServerProxy:
    """Least-loaded dispatcher over a pool of :class:`GpuDevice`.

    ``dispatch_overhead`` models the host-side handling time per request
    (thread wakeup, CUDA context switch) added before the kernel is
    queued on a device.
    """

    def __init__(
        self,
        sim: Simulator,
        devices: Sequence[GpuDevice],
        dispatch_overhead: float = 0.0005,
    ) -> None:
        if not devices:
            raise ValueError("proxy needs at least one GPU device")
        if dispatch_overhead < 0:
            raise ValueError("dispatch_overhead must be non-negative")
        self.sim = sim
        self.devices: List[GpuDevice] = list(devices)
        self.dispatch_overhead = dispatch_overhead
        self.requests_received = 0

    def _pick_device(self) -> GpuDevice:
        """Least pending work; ties broken by queue length then order."""
        return min(
            self.devices,
            key=lambda d: (d.pending_work, d.queue_length),
        )

    def execute(
        self, kernel: KernelWork, on_done: Callable[[float], None]
    ) -> None:
        """Accept ``kernel`` and call ``on_done(completion_time)`` when the
        chosen GPU finishes it."""
        self.requests_received += 1

        def dispatch(event) -> None:
            self._pick_device().enqueue(kernel, on_done)

        if self.dispatch_overhead > 0:
            self.sim.schedule(
                self.dispatch_overhead,
                dispatch,
                name=f"proxy-dispatch:{kernel.label or kernel.kernel_id}",
            )
        else:
            self._pick_device().enqueue(kernel, on_done)

    # ------------------------------------------------------------------
    # aggregate statistics (scenario calibration + tests)
    # ------------------------------------------------------------------
    @property
    def total_busy_time(self) -> float:
        return sum(d.busy_time for d in self.devices)

    @property
    def kernels_completed(self) -> int:
        return sum(d.kernels_completed for d in self.devices)
