"""Unit tests for the GPU device model and the dispatch proxy."""

import numpy as np
import pytest

from repro.server.gpu import GpuDevice, KernelWork
from repro.server.proxy import GpuServerProxy
from repro.sim.engine import Simulator


def _kernel(work=0.1, label=""):
    return KernelWork(
        upload_bytes=0, compute_work=work, download_bytes=0, label=label
    )


class TestKernelWork:
    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            KernelWork(0, -1.0, 0)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            KernelWork(-1, 0.1, 0)

    def test_ids_unique(self):
        assert _kernel().kernel_id != _kernel().kernel_id


class TestGpuDevice:
    def test_deterministic_service_time(self, sim):
        gpu = GpuDevice(sim, "g0", speed=2.0)
        done = []
        gpu.enqueue(_kernel(work=1.0), done.append)
        sim.run_until(1.0)
        assert done == [pytest.approx(0.5)]

    def test_fifo_order(self, sim):
        gpu = GpuDevice(sim, "g0")
        order = []
        gpu.enqueue(_kernel(0.1, "a"), lambda t: order.append(("a", t)))
        gpu.enqueue(_kernel(0.1, "b"), lambda t: order.append(("b", t)))
        sim.run_until(1.0)
        assert order == [("a", pytest.approx(0.1)),
                         ("b", pytest.approx(0.2))]

    def test_queue_length_includes_running(self, sim):
        gpu = GpuDevice(sim, "g0")
        gpu.enqueue(_kernel(0.5), lambda t: None)
        gpu.enqueue(_kernel(0.5), lambda t: None)
        assert gpu.queue_length == 2
        assert gpu.busy

    def test_busy_time_accumulates(self, sim):
        gpu = GpuDevice(sim, "g0")
        for _ in range(3):
            gpu.enqueue(_kernel(0.2), lambda t: None)
        sim.run_until(1.0)
        assert gpu.busy_time == pytest.approx(0.6)
        assert gpu.kernels_completed == 3

    def test_interference_needs_rng(self, sim):
        with pytest.raises(ValueError):
            GpuDevice(sim, "g0", interference_sigma=0.5)

    def test_interference_perturbs_service_time(self, sim):
        rng = np.random.default_rng(0)
        gpu = GpuDevice(sim, "g0", interference_sigma=0.5, rng=rng)
        done = []
        for _ in range(20):
            gpu.enqueue(_kernel(0.1), done.append)
        sim.run_until(100.0)
        gaps = np.diff([0.0] + done)
        assert np.std(gaps) > 0.005  # visibly noisy

    def test_invalid_speed_rejected(self, sim):
        with pytest.raises(ValueError):
            GpuDevice(sim, "g0", speed=0.0)

    def test_pending_work_running_sum_tracks_queue(self, sim):
        """The running sum matches a fresh sum of the queue after every
        enqueue and completion, and is exactly 0.0 whenever the queue
        is empty (float dust from add/subtract must not survive)."""
        rng = np.random.default_rng(20)
        gpu = GpuDevice(sim, "g0", speed=1.5)
        emptied = 0

        def check():
            fresh = sum(k.compute_work for k, _ in gpu._queue) / gpu.speed
            if gpu._queue:
                assert gpu.pending_work == pytest.approx(fresh, rel=1e-12)
            else:
                assert gpu.pending_work == 0.0

        for _ in range(600):
            if rng.random() < 0.45 or sim.pending == 0:
                work = float(rng.exponential(0.05))
                gpu.enqueue(_kernel(work), lambda t: None)
            else:
                sim.step()
                emptied += not gpu._queue
            check()
        while sim.step() is not None:
            check()
        assert emptied > 10
        assert gpu.pending_work == 0.0
        assert gpu.queue_length == 0


class TestProxy:
    def test_requires_devices(self, sim):
        with pytest.raises(ValueError):
            GpuServerProxy(sim, [])

    def test_dispatch_overhead_delays_start(self, sim):
        gpu = GpuDevice(sim, "g0")
        proxy = GpuServerProxy(sim, [gpu], dispatch_overhead=0.01)
        done = []
        proxy.execute(_kernel(0.1), done.append)
        sim.run_until(1.0)
        assert done == [pytest.approx(0.11)]

    def test_least_loaded_dispatch(self, sim):
        g0 = GpuDevice(sim, "g0")
        g1 = GpuDevice(sim, "g1")
        proxy = GpuServerProxy(sim, [g0, g1], dispatch_overhead=0.0)
        proxy.execute(_kernel(1.0), lambda t: None)  # -> g0
        proxy.execute(_kernel(0.1), lambda t: None)  # -> g1 (g0 busy)
        assert g0.queue_length == 1
        assert g1.queue_length == 1

    def test_drained_devices_tie_exactly(self, sim):
        """Once both devices have drained, pending work ties at exactly
        0.0, so dispatch falls through to queue length, then order."""
        g0 = GpuDevice(sim, "g0")
        g1 = GpuDevice(sim, "g1")
        # g1's sizes leave float dust in a sum that is only added to
        # and subtracted from
        for work in (0.1, 0.2, 0.3):
            g0.enqueue(_kernel(work), lambda t: None)
        for work in (0.5, 0.1, 0.2):
            g1.enqueue(_kernel(work), lambda t: None)
        sim.run_until(2.0)
        assert g0.queue_length == g1.queue_length == 0
        proxy = GpuServerProxy(sim, [g0, g1], dispatch_overhead=0.0)
        g0.enqueue(_kernel(0.4), lambda t: None)  # g0 busy, queue empty
        proxy.execute(_kernel(0.4), lambda t: None)  # lower queue length
        assert (g0.queue_length, g1.queue_length) == (1, 1)
        proxy.execute(_kernel(0.4), lambda t: None)  # full tie: first
        assert (g0.queue_length, g1.queue_length) == (2, 1)

    def test_parallel_speedup(self, sim):
        """Two GPUs finish two kernels in the time one would take."""
        devices = [GpuDevice(sim, f"g{i}") for i in range(2)]
        proxy = GpuServerProxy(sim, devices, dispatch_overhead=0.0)
        done = []
        proxy.execute(_kernel(0.5), done.append)
        proxy.execute(_kernel(0.5), done.append)
        sim.run_until(1.0)
        assert done == [pytest.approx(0.5), pytest.approx(0.5)]

    def test_aggregate_statistics(self, sim):
        devices = [GpuDevice(sim, f"g{i}") for i in range(2)]
        proxy = GpuServerProxy(sim, devices, dispatch_overhead=0.0)
        for _ in range(4):
            proxy.execute(_kernel(0.1), lambda t: None)
        sim.run_until(1.0)
        assert proxy.requests_received == 4
        assert proxy.kernels_completed == 4
        assert proxy.total_busy_time == pytest.approx(0.4)
