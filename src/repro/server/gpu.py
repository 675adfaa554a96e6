"""GPU device model: a FIFO work queue with stochastic service times.

Models one accelerator board of the case study's server (two Tesla
M2050s, §6.1.1).  A kernel's nominal duration is
``compute_work / speed``; actual duration is scaled by a lognormal
interference factor capturing the effects the paper highlights —
"running simultaneous tasks on the GPU may result in much worse response
time" — memory contention, scheduling inside the driver, DVFS, etc.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Optional, Tuple

import numpy as np

from ..sim.engine import Simulator

__all__ = ["KernelWork", "GpuDevice"]

_kernel_counter = itertools.count()


@dataclass(frozen=True)
class KernelWork:
    """One unit of offloadable computation as the server sees it.

    ``compute_work`` is in reference-GPU-seconds; payload sizes feed the
    network model, not the device.
    """

    upload_bytes: float
    compute_work: float
    download_bytes: float
    label: str = ""
    kernel_id: int = field(default_factory=lambda: next(_kernel_counter))

    def __post_init__(self) -> None:
        if self.compute_work < 0:
            raise ValueError("compute_work must be non-negative")
        if self.upload_bytes < 0 or self.download_bytes < 0:
            raise ValueError("payload sizes must be non-negative")


class GpuDevice:
    """A single GPU executing kernels FIFO, one at a time.

    Parameters
    ----------
    sim:
        Simulation engine.
    name:
        Identifier for traces.
    speed:
        Throughput relative to the reference device (1.0 = reference).
    interference_sigma:
        Lognormal sigma of the service-time noise; 0 = deterministic.
    rng:
        Random generator (required when ``interference_sigma > 0``).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        speed: float = 1.0,
        interference_sigma: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if speed <= 0:
            raise ValueError("speed must be positive")
        if interference_sigma < 0:
            raise ValueError("interference_sigma must be non-negative")
        if interference_sigma > 0 and rng is None:
            raise ValueError("rng required when interference is enabled")
        self.sim = sim
        self.name = name
        self.speed = speed
        self.interference_sigma = interference_sigma
        self.rng = rng
        self._queue: Deque[Tuple[KernelWork, Callable[[float], None]]] = deque()
        # running sum of the queued kernels' compute_work; exactly 0.0
        # whenever the queue is empty, so idle devices tie exactly
        self._queued_work = 0.0
        self._busy = False
        self.kernels_completed = 0
        self.busy_time = 0.0

    # ------------------------------------------------------------------
    # load introspection (the proxy's dispatch heuristic reads these)
    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._queue) + (1 if self._busy else 0)

    @property
    def pending_work(self) -> float:
        """Nominal seconds of work waiting (excludes the running kernel's
        residual, which the proxy cannot observe on a real device)."""
        return self._queued_work / self.speed

    @property
    def busy(self) -> bool:
        return self._busy

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def enqueue(
        self, kernel: KernelWork, on_done: Callable[[float], None]
    ) -> None:
        """Queue ``kernel``; ``on_done(completion_time)`` fires when it
        finishes on this device."""
        self._queue.append((kernel, on_done))
        self._queued_work += kernel.compute_work
        if not self._busy:
            self._start_next()

    def _service_time(self, kernel: KernelWork) -> float:
        nominal = kernel.compute_work / self.speed
        if self.interference_sigma > 0 and nominal > 0:
            factor = float(
                self.rng.lognormal(mean=0.0, sigma=self.interference_sigma)
            )
            return nominal * factor
        return nominal

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        kernel, on_done = self._queue.popleft()
        if self._queue:
            self._queued_work -= kernel.compute_work
        else:
            self._queued_work = 0.0
        duration = self._service_time(kernel)
        self.busy_time += duration

        def finish(event) -> None:
            self.kernels_completed += 1
            on_done(event.time)
            self._start_next()

        self.sim.schedule(
            duration, finish, name=f"gpu:{self.name}:{kernel.label or kernel.kernel_id}"
        )
