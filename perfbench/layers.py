"""Which functions the traced run wraps, and the per-layer metrics.

Three patch sets, one per process role:

* :func:`install_service` — the server process (``serve_traced.py``);
* :func:`install_client` — the benchmark's own client, around the
  wire codec it calls;
* :func:`install_sim` — the ``sim-soak`` process.

:data:`PER_LAYER` is the full per-layer metric list with units.  Every
traced run reports all of them; a layer a workload does not run reads
0, which is itself the prediction for that workload.
"""

from __future__ import annotations

import asyncio
import gc
from time import perf_counter
from typing import Dict, Mapping, Optional

from tracing import Recorder, request_id_of, self_times

__all__ = [
    "PER_LAYER",
    "install_client",
    "install_service",
    "install_sim",
    "service_metrics",
    "sim_metrics",
]

#: (name, unit, better) for every per-layer metric, in print order.
PER_LAYER = (
    ("protocol.decode_us", "us", "lower"),
    ("protocol.encode_us", "us", "lower"),
    ("protocol.client_decode_us", "us", "lower"),
    ("protocol.client_encode_us", "us", "lower"),
    ("request.from_dict_us", "us", "lower"),
    ("request.build_instance_us", "us", "lower"),
    ("request.to_dict_us", "us", "lower"),
    ("batching.batch_size_mean", "count", "higher"),
    ("batching.queue_wait_ms", "ms", "lower"),
    ("batching.linger_ms", "ms", "lower"),
    ("server.batch_ms", "ms", "lower"),
    ("server.thread_hop_us", "us", "lower"),
    ("tracebus.events_per_request", "count", "lower"),
    ("sharding.solve_batch_ms", "ms", "lower"),
    ("sharding.unique_ratio", "ratio", "lower"),
    ("sharding.entries", "count", "higher"),
    ("cache.lookup_us", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.lookups", "count", "higher"),
    ("cache.probe_delta_us", "us", "lower"),
    ("cache.near_hit_ratio", "ratio", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("dp.scratch_solves", "count", "lower"),
    ("dp.scratch_ms", "ms", "lower"),
    ("delta.solves", "count", "higher"),
    ("delta.solve_ms", "ms", "lower"),
    ("delta.layers_reused_ratio", "ratio", "higher"),
    ("delta.layers_total", "count", "higher"),
    ("theorem3.calls", "count", "lower"),
    ("theorem3.us", "us", "lower"),
    ("server.rss_growth_mb_per_1k", "MB", "lower"),
    ("gc.full_collections", "count", "lower"),
    ("gc.pause_ms_per_1k", "ms", "lower"),
    ("odm.decide_ms", "ms", "lower"),
    ("sim.events", "count", "higher"),
    ("sim.us_per_event", "us", "lower"),
    ("proxy.dispatches", "count", "higher"),
    ("gpu.pending_work_calls", "count", "lower"),
    ("gpu.pending_work_us", "us", "lower"),
    ("gpu.queue_len_mean", "count", "lower"),
    ("gpu.queue_len_max", "count", "lower"),
    ("sched.released", "count", "higher"),
    ("sched.offloaded", "count", "higher"),
    ("sched.returned", "count", "higher"),
    ("sched.compensated", "count", "lower"),
    ("trace.requests", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
    ("host.calib_ms", "ms", "lower"),
)


def _rid_result(args, kwargs, result) -> Optional[str]:
    return request_id_of(result)


def _rid_first_arg(args, kwargs, result) -> Optional[str]:
    return request_id_of(args[0])


# ----------------------------------------------------------------------
# patch sets
# ----------------------------------------------------------------------
def install_service(rec: Recorder) -> None:
    """Wrap the service layers inside a ``repro serve`` process.

    Measurement starts at the first ``stats`` op: that call clears
    everything recorded during warm-up, so the numbers describe the
    timed phase only.
    """
    from repro.knapsack import SolverCache
    from repro.service import batching, request, server, sharding

    rec.patch(server, "decode_payload",
              rec.timed("protocol.decode", rid=_rid_result))
    rec.patch(server, "encode_frame",
              rec.timed("protocol.encode", rid=_rid_first_arg))
    rec.patch(
        request.AdmissionRequest, "from_dict",
        lambda cm: classmethod(rec.timed(
            "request.from_dict", rid=lambda a, k, r: r.request_id
        )(cm.__func__)),
    )
    rec.patch(request.AdmissionResponse, "to_dict", rec.timed(
        "request.to_dict", rid=lambda a, k, r: a[0].request_id))
    rec.patch(server, "build_request_instance", rec.timed(
        "request.build_instance", rid=lambda a, k, r: a[0].request_id))
    rec.patch(server.ODMService, "submit", rec.timed_async(
        "service.submit", rid=lambda a, k, r: a[1].request_id))

    def collected(args, kwargs, batch, start, end) -> None:
        rec.sample("batching.batch_size", len(batch))
        first = min(p.enqueued for p in batch)
        rec.sample("batching.linger", end - max(start, first))
        for pending in batch:
            rec.sample("batching.queue_wait", end - pending.enqueued)

    rec.patch(batching.MicroBatcher, "collect",
              rec.timed_async("batching.collect", after=collected))
    rec.patch(server.ODMService, "_process_batch",
              rec.timed_async("server.batch"))
    rec.patch(asyncio, "to_thread", rec.timed_async("server.to_thread"))
    # hashes of the cache keys ShardSolver derives for the current
    # batch: distinct keys per entry is the in-batch dedup opportunity
    batch_keys = []

    def make_key_for(key_for):
        def hashed_key_for(*args, **kwargs):
            key = key_for.__func__(*args, **kwargs)
            batch_keys.append(hash(key))
            return key
        return staticmethod(hashed_key_for)

    rec.patch(SolverCache, "key_for", make_key_for)

    def batch_solved(args, kwargs, result, start, end) -> None:
        rec.counts["sharding.entries"] += len(args[1])
        rec.counts["sharding.unique"] += len(set(batch_keys))
        batch_keys.clear()

    rec.patch(sharding.ShardSolver, "solve_batch",
              rec.timed("sharding.solve_batch", after=batch_solved))

    def looked_up(args, kwargs, result, start, end) -> None:
        rec.counts["cache.lookups"] += 1
        rec.counts["cache.hits"] += bool(result[0])

    rec.patch(SolverCache, "lookup",
              rec.timed("cache.lookup", after=looked_up))

    def probed(args, kwargs, result, start, end) -> None:
        rec.counts["cache.near_hits"] += result is not None

    rec.patch(SolverCache, "probe_delta",
              rec.timed("cache.probe_delta", after=probed))

    def make_store(store):
        def counted_store(cache, key, *args, **kwargs):
            size, fresh = len(cache), not cache.contains(key)
            store(cache, key, *args, **kwargs)
            if fresh and len(cache) == size:
                rec.counts["cache.evictions"] += 1
        return counted_store

    rec.patch(SolverCache, "store", make_store)

    def solved(args, kwargs, result, start, end) -> None:
        if kwargs.get("state") is not None:
            rec.counts["delta.layers_reused"] += result.reused_layers
            rec.counts["delta.layers_total"] += len(args[0].classes)

    rec.patch(sharding, "solve_delta", rec.timed(
        lambda a, k: (
            "delta.solve" if k.get("state") is not None else "dp.scratch"
        ),
        after=solved,
    ))
    rec.patch(server, "theorem3_test", rec.timed("theorem3"))

    def stats_read(args, kwargs, result, start, end) -> None:
        if not rec.samples.get("stats.requests"):
            rec.clear()
        rec.sample("stats.requests", float(result["requests"]))
        rec.sample("stats.bus_events",
                   float(args[0].observability.bus.emitted))

    rec.patch(server.ODMService, "stats",
              rec.timed("server.stats", after=stats_read))

    # interpreter GC pauses: every retained event and histogram sample
    # is an object a full collection scans (the callback lives as long
    # as this server process)
    started = {}

    def collected_garbage(phase, info) -> None:
        if phase == "start":
            started["t"] = perf_counter()
        elif "t" in started:
            name = f"gc.gen{info['generation']}"
            rec.tally(name, perf_counter() - started.pop("t"))

    gc.callbacks.append(collected_garbage)


def install_client(rec: Recorder) -> None:
    """Wrap the wire codec the benchmark's :class:`ServiceClient` calls."""
    from repro.service import server

    rec.patch(server, "decode_payload",
              rec.timed("client.decode", rid=_rid_result))
    rec.patch(server, "encode_frame",
              rec.timed("client.encode", rid=_rid_first_arg))


def install_sim(rec: Recorder) -> None:
    """Wrap the ODM, engine, proxy and GPU calls of ``sim-soak``."""
    from repro.runtime.system import OffloadingSystem
    from repro.server.gpu import GpuDevice
    from repro.server.proxy import GpuServerProxy
    from repro.sim.engine import Simulator

    rec.patch(OffloadingSystem, "decide", rec.timed("odm.decide"))
    rec.patch(OffloadingSystem, "run", rec.timed("sim.run"))

    def make_run_until(run_until):
        timed = rec.timed("sim.run_until")(run_until)

        def counted_run_until(sim, horizon):
            before = sim.events_processed
            timed(sim, horizon)
            rec.counts["sim.events"] += sim.events_processed - before
        return counted_run_until

    rec.patch(Simulator, "run_until", make_run_until)

    def make_execute(execute):
        def counted_execute(proxy, *args, **kwargs):
            rec.counts["proxy.dispatches"] += 1
            return execute(proxy, *args, **kwargs)
        return counted_execute

    rec.patch(GpuServerProxy, "execute", make_execute)

    def make_pending(prop):
        fget = prop.fget

        def pending_work(device):
            started = perf_counter()
            value = fget(device)
            rec.tally("gpu.pending_work", perf_counter() - started)
            depth = device.queue_length
            rec.counts["gpu.queue_len_sum"] += depth
            if depth > rec.counts["gpu.queue_len_max"]:
                rec.counts["gpu.queue_len_max"] = depth
            return value
        return property(pending_work)

    rec.patch(GpuDevice, "pending_work", make_pending)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Table:
    """``(calls, inclusive s, self s)`` per span name, 0 when absent."""

    def __init__(self, rec: Recorder) -> None:
        self.rows = self_times(rec.spans)

    def calls(self, name: str) -> int:
        return self.rows.get(name, (0, 0.0, 0.0))[0]

    def mean(self, name: str, scale: float, use_self: bool = False) -> float:
        calls, inclusive, own = self.rows.get(name, (0, 0.0, 0.0))
        return _ratio(own if use_self else inclusive, calls) * scale


def service_metrics(server: Recorder, client: Recorder) -> Dict[str, float]:
    """Per-layer metrics of an admission workload's traced server."""
    s, c = _Table(server), _Table(client)
    counts, samples = server.counts, server.samples
    lookups, hits = counts["cache.lookups"], counts["cache.hits"]
    reqs = samples.get("stats.requests", [])
    events = samples.get("stats.bus_events", [])
    served = reqs[-1] - reqs[0] if len(reqs) > 1 else 0.0
    return {
        "protocol.decode_us": s.mean("protocol.decode", 1e6),
        "protocol.encode_us": s.mean("protocol.encode", 1e6),
        "protocol.client_decode_us": c.mean("client.decode", 1e6),
        "protocol.client_encode_us": c.mean("client.encode", 1e6),
        "request.from_dict_us": s.mean("request.from_dict", 1e6),
        "request.build_instance_us": s.mean("request.build_instance", 1e6),
        "request.to_dict_us": s.mean("request.to_dict", 1e6),
        "batching.batch_size_mean": _mean(samples["batching.batch_size"]),
        "batching.queue_wait_ms": _mean(samples["batching.queue_wait"]) * 1e3,
        "batching.linger_ms": _mean(samples["batching.linger"]) * 1e3,
        "server.batch_ms": s.mean("server.batch", 1e3),
        "server.thread_hop_us": s.mean("server.to_thread", 1e6, use_self=True),
        "tracebus.events_per_request": _ratio(
            events[-1] - events[0] if len(events) > 1 else 0.0, served),
        "sharding.solve_batch_ms": s.mean("sharding.solve_batch", 1e3),
        "sharding.unique_ratio": _ratio(
            counts["sharding.unique"], counts["sharding.entries"]),
        "sharding.entries": counts["sharding.entries"],
        "cache.lookup_us": s.mean("cache.lookup", 1e6),
        "cache.hit_ratio": _ratio(hits, lookups),
        "cache.lookups": lookups,
        "cache.probe_delta_us": s.mean("cache.probe_delta", 1e6),
        "cache.near_hit_ratio": _ratio(
            counts["cache.near_hits"], lookups - hits),
        "cache.misses": lookups - hits,
        "cache.evictions": counts["cache.evictions"],
        "dp.scratch_solves": s.calls("dp.scratch"),
        "dp.scratch_ms": s.mean("dp.scratch", 1e3),
        "delta.solves": s.calls("delta.solve"),
        "delta.solve_ms": s.mean("delta.solve", 1e3),
        "delta.layers_reused_ratio": _ratio(
            counts["delta.layers_reused"], counts["delta.layers_total"]),
        "delta.layers_total": counts["delta.layers_total"],
        "theorem3.calls": s.calls("theorem3"),
        "theorem3.us": s.mean("theorem3", 1e6),
        "gc.full_collections": server.counts["gc.gen2"],
        "gc.pause_ms_per_1k": _ratio(
            sum(server.seconds[f"gc.gen{g}"] for g in range(3)) * 1e3,
            served / 1000.0),
    }


def sim_metrics(rec: Recorder, sched: Mapping[str, int]) -> Dict[str, float]:
    """Per-layer metrics of the traced ``sim-soak`` sets (the ODM's
    decide time is taken from set-up, where it runs)."""
    t = _Table(rec)
    counts = rec.counts
    events = counts["sim.events"]
    calls = counts["gpu.pending_work"]
    run_until_s = t.rows.get("sim.run_until", (0, 0.0, 0.0))[1]
    out = {
        "sim.events": events,
        "sim.us_per_event": _ratio(run_until_s, events) * 1e6,
        "proxy.dispatches": counts["proxy.dispatches"],
        "gpu.pending_work_calls": calls,
        "gpu.pending_work_us": _ratio(rec.seconds["gpu.pending_work"],
                                      calls) * 1e6,
        "gpu.queue_len_mean": _ratio(counts["gpu.queue_len_sum"], calls),
        "gpu.queue_len_max": counts["gpu.queue_len_max"],
    }
    out.update({f"sched.{k}": v for k, v in sched.items()})
    return out
