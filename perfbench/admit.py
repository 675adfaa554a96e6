"""The admission workloads, ``admit-hot`` and ``admit-churn``.

Each run launches the server the way users do (``python -m repro serve
--port 0``, every other option at its default) and drives it from one
:class:`~repro.service.ServiceClient` over one binary-wire (v2)
connection.  The loop is closed: a fixed number of callers each send an
admission and wait for its decision before sending the next.  Traffic
is :func:`~repro.service.generate_open_loop`'s pooled population, used
for its request sequence only (the arrival offsets are ignored).

* ``admit-hot`` — 16 in flight (the default ``max_batch``), 10 sets ×
  5 tasks × 3 servers × 4 estimate profiles, no churn: 40 distinct
  instances, so after warm-up nearly every admission is an exact cache
  hit and the wire, batcher, request build and Theorem-3 re-verify do
  the work.
* ``admit-churn`` — 4 in flight, 48 sets × 12 tasks, 90% of requests
  re-weight one task: nearly every admission misses the cache, and the
  scratch and delta DP solves do the work while every miss writes the
  cache.

Every correctness check runs after the timed phase.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.schedulability import OffloadAssignment, theorem3_test
from repro.knapsack import solve_dp, solve_dp_reference
from repro.knapsack.dp import _quantize_weight
from repro.service import (
    AdmissionRequest,
    AdmissionResponse,
    ConnectionLost,
    OpenLoopConfig,
    ServiceClient,
    audit_response,
    build_request_instance,
    generate_open_loop,
)
from repro.service.loadgen import ESTIMATE_PALETTE
from repro.sim.rng import RandomStreams
from repro.workloads.generator import random_offloading_task_set

import layers
import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: where the traced server writes its spans (removed after reading)
OUT = HERE / ".out"

#: servers spawned per run to time set-up; the last one is measured
SETUP_REPEATS = 5
#: the traced run alternates untraced and traced servers in this many
#: equal blocks, so host drift hits both sides alike
TRACED_BLOCKS = 8
#: audit_response sample drawn from this many earliest decisions
AUDIT_WINDOW = 1024
REQUEST_TIMEOUT = 60.0
#: the ``repro serve`` default the audits must solve at
RESOLUTION = 20_000


@dataclass(frozen=True)
class AdmitSpec:
    in_flight: int
    unique_sets: int
    num_tasks: int
    churn_rate: float
    #: ``None`` audits every distinct instance; else a seeded sample
    audit_sample: Optional[int]
    #: requests generated per second of run (the trace wraps if short)
    trace_rate: int
    #: leading decisions covered by the printed digest
    digest_prefix: int


SPECS = {
    "admit-hot": AdmitSpec(16, 10, 5, 0.0, None, 4000, 2000),
    "admit-churn": AdmitSpec(4, 48, 12, 0.9, 32, 1000, 400),
}


class Call(NamedTuple):
    index: int
    request: AdmissionRequest
    response: Optional[AdmissionResponse]
    sent: float
    received: float


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def build_inputs(
    spec: AdmitSpec, seed: int, seconds: float
) -> Tuple[List[AdmissionRequest], List[AdmissionRequest]]:
    """``(warm-up, trace)`` for one run, both fixed by ``seed``.

    Warm-up admits every pool set under every estimate profile once,
    the base instances the trace draws from.
    """
    config = OpenLoopConfig(
        seed=seed,
        requests=max(1, int(spec.trace_rate * seconds)),
        unique_sets=spec.unique_sets,
        num_tasks=spec.num_tasks,
        churn_rate=spec.churn_rate,
        audit=False,
    )
    rng = RandomStreams(seed=seed).get("workloads")
    pool = [
        random_offloading_task_set(
            rng,
            num_tasks=spec.num_tasks,
            total_utilization=config.total_utilization,
        )
        for _ in range(spec.unique_sets)
    ]
    warm = [
        AdmissionRequest(
            request_id=f"warm-{i}-{j}",
            tasks=tasks,
            server_estimates={
                server: float(profile[k % len(profile)])
                for k, server in enumerate(config.servers)
            },
        )
        for i, tasks in enumerate(pool)
        for j, profile in enumerate(ESTIMATE_PALETTE)
    ]
    trace = [request for _, request in generate_open_loop(config, pool)]
    return warm, trace


class Feed:
    """Hands out requests in order; ``cycle`` wraps around with fresh
    request ids (the service deduplicates on id)."""

    def __init__(self, requests: List[AdmissionRequest],
                 cycle: bool = True) -> None:
        self.requests = requests
        self.cycle = cycle
        self.next = 0

    def take(self) -> Optional[Tuple[int, AdmissionRequest]]:
        index = self.next
        lap, pos = divmod(index, len(self.requests))
        if lap and not self.cycle:
            return None
        self.next += 1
        request = self.requests[pos]
        if lap:
            request = replace(
                request, request_id=f"{request.request_id}-lap{lap}"
            )
        return index, request


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
async def _kill(proc: asyncio.subprocess.Process) -> None:
    if proc.returncode is None:
        proc.kill()
        await proc.wait()


class Server:
    """One ``repro serve`` child process and a client connected to it."""

    def __init__(self, proc, client: ServiceClient) -> None:
        self.proc = proc
        self.client = client

    @classmethod
    async def spawn(cls, spans: Optional[Path] = None) -> "Server":
        """Start a server on a free port; with ``spans``, the traced
        launcher that writes its spans there at shutdown."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        if spans is None:
            args = ["-m", "repro", "serve", "--port", "0"]
        else:
            args = [str(HERE / "serve_traced.py"), str(spans),
                    "--port", "0"]
        proc = await asyncio.create_subprocess_exec(
            sys.executable, *args,
            stdout=asyncio.subprocess.PIPE, env=env, cwd=str(ROOT),
        )
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), 60)
            if not line.startswith(b"serving on "):
                raise RuntimeError(f"server failed to start: {line!r}")
            port = int(line.rsplit(b":", 1)[1])
            client = await ServiceClient("127.0.0.1", port).connect()
        except BaseException:
            await _kill(proc)
            raise
        return cls(proc, client)

    def memory_mb(self, field: str = "VmHWM") -> float:
        """A memory figure of the server process in MiB: its peak
        resident set (``VmHWM``, the default) or current one
        (``VmRSS``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"the kernel reports no {field}")

    async def stop(self) -> None:
        try:
            await self.client.shutdown(timeout=30)
            await self.client.close()
            await asyncio.wait_for(self.proc.wait(), 60)
        finally:
            await _kill(self.proc)


async def closed_loop(
    server: Server, feed: Feed, in_flight: int,
    seconds: Optional[float] = None,
) -> Tuple[List[Call], float]:
    """``in_flight`` callers, each waiting for its decision before the
    next send, until ``seconds`` pass (or the feed runs dry).

    Returns the calls and the wall time until the last one returned.
    """
    calls: List[Call] = []
    started = perf_counter()
    deadline = None if seconds is None else started + seconds

    async def caller() -> None:
        while deadline is None or perf_counter() < deadline:
            taken = feed.take()
            if taken is None:
                return
            index, request = taken
            sent = perf_counter()
            try:
                response = await server.client.submit(
                    request, timeout=REQUEST_TIMEOUT
                )
            except (ConnectionLost, asyncio.TimeoutError):
                calls.append(Call(index, request, None, sent, perf_counter()))
                if not server.client.connected:
                    return
                continue
            calls.append(Call(index, request, response, sent, perf_counter()))

    await asyncio.gather(*(caller() for _ in range(in_flight)))
    return calls, perf_counter() - started


# ----------------------------------------------------------------------
# correctness (never inside the timed phase)
# ----------------------------------------------------------------------
def _decision(response: AdmissionResponse) -> Tuple:
    return (
        response.status,
        tuple(sorted(response.placements.items(),
                     key=lambda kv: kv[0])),
        response.expected_benefit,
    )


def _instance_key(request: AdmissionRequest) -> Tuple:
    return (id(request.tasks),
            tuple(sorted(request.server_estimates.items())))


def _quantized_weight(selection) -> int:
    unit = selection.instance.capacity / RESOLUTION
    return sum(
        _quantize_weight(selection.item_for(cls.class_id).weight, unit)
        for cls in selection.instance.classes
    )


def documented_tie(call: Call) -> bool:
    """Whether an answer ``audit_response`` flags only for its
    placements is ``solve_dp``'s own answer at an argmax tie.

    ``solve_dp`` and ``solve_dp_reference`` agree on feasibility, the
    optimal value and the minimal quantized weight, but may pick
    different selections among equal optima (DESIGN.md §10; the
    service's differential suite requires such disagreements to
    exist).  The service promises bit-identity with ``solve_dp``.  An
    answer that is exactly the serial ``solve_dp`` selection and ties
    the reference on value and quantized weight is correct under that
    contract, even though ``audit_response`` pins the reference's
    argmax.
    """
    response = call.response
    instance = build_request_instance(call.request, response.allowed_servers)
    serial = solve_dp(instance, resolution=RESOLUTION)
    reference = solve_dp_reference(instance, resolution=RESOLUTION)
    if serial is None or reference is None:
        return False
    for cls in instance.classes:
        server, r = serial.item_for(cls.class_id).tag
        if tuple(response.placements.get(cls.class_id, ())) != (
            server, float(r)
        ):
            return False
    return (
        serial.total_value == reference.total_value
        == response.expected_benefit
        and _quantized_weight(serial) == _quantized_weight(reference)
    )


def check(calls: List[Call], spec: AdmitSpec,
          seed: int) -> Tuple[stats.Outcome, List[str]]:
    """Count shed, unanswered and wrong answers among ``calls``.

    Every admission is re-checked against Theorem 3.  Answers to one
    instance must all be the same decision.  ``audit_response``
    (bit-identity against the reference DP) runs on the first answer
    to every distinct instance, or, with ``spec.audit_sample``, on a
    seeded sample of the earliest decisions.
    """
    outcome = stats.Outcome(attempted=len(calls))
    bad: Dict[int, List[str]] = {}
    first: Dict[Tuple, Call] = {}
    decided: List[Call] = []
    for call in calls:
        response = call.response
        if response is None:
            outcome.errors += 1
            continue
        if response.status == "shed":
            outcome.shed += 1
            continue
        decided.append(call)
        rid = response.request_id
        if response.admitted:
            result = theorem3_test(call.request.tasks, [
                OffloadAssignment(tid, r)
                for tid, (_server, r) in response.placements.items()
                if r > 0
            ])
            if not result.feasible:
                bad.setdefault(id(call), []).append(
                    f"{rid}: admitted but Theorem 3 fails"
                )
        seen = first.setdefault(_instance_key(call.request), call)
        if seen is not call and (
            _decision(seen.response) != _decision(response)
        ):
            bad.setdefault(id(call), []).append(
                f"{rid}: decision differs from {seen.request.request_id} "
                f"on the same instance"
            )
    if spec.audit_sample is None:
        audited = list(first.values())
    else:
        window = sorted(decided, key=lambda c: c.index)[:AUDIT_WINDOW]
        rng = np.random.default_rng([seed, len(window)])
        picks = rng.choice(
            len(window), size=min(spec.audit_sample, len(window)),
            replace=False,
        )
        audited = [window[i] for i in sorted(picks)]
    ties = 0
    for call in audited:
        found = audit_response(call.request, call.response, RESOLUTION)
        placements_only = [
            f"{call.response.request_id}: "
            f"exact placements differ from reference"
        ]
        if found == placements_only and documented_tie(call):
            ties += 1
        elif found:
            bad.setdefault(id(call), []).extend(found)
    outcome.anomalies = len(bad)
    problems = [msg for msgs in bad.values() for msg in msgs]
    return outcome, problems + [
        f"audited {len(audited)} decisions against solve_dp_reference; "
        f"{ties} differ only by a documented argmax tie (same value and "
        f"quantized weight, bit-identical to serial solve_dp)"
    ]


def decision_digest(calls: List[Call], prefix: int) -> str:
    """Digest of the first ``prefix`` decisions, in request order."""
    leading = sorted(
        (c for c in calls if c.index < prefix and c.response is not None),
        key=lambda c: c.index,
    )
    return stats.digest(
        [c.response.request_id, c.response.status,
         {tid: list(p) for tid, p in c.response.placements.items()},
         c.response.expected_benefit]
        for c in leading
    )


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
async def set_up(spec: AdmitSpec, warm: List[AdmissionRequest],
                 spans: Optional[Path] = None) -> Tuple[Server, float]:
    """Spawn a server and answer the warm-up; returns it and the time
    from spawn until the last warm-up answer."""
    started = perf_counter()
    server = await Server.spawn(spans)
    try:
        await closed_loop(server, Feed(warm, cycle=False), spec.in_flight)
    except BaseException:
        await server.stop()
        raise
    return server, perf_counter() - started


@dataclass
class TracedPhase:
    """The traced run's timed phase: blocks alternate between the
    untraced server and a traced one, so host drift hits both alike."""

    calls: List[Call]
    wall: float
    traced_calls: List[Call]
    traced_wall: float
    server_rec: tracing.Recorder
    client_rec: tracing.Recorder
    rss_growth_mb: float

    def metrics(self, untraced_good: int, traced_good: int) -> Dict[str, float]:
        untraced_rate = untraced_good / self.wall
        traced_rate = traced_good / self.traced_wall
        out = layers.service_metrics(self.server_rec, self.client_rec)
        out.update({
            # read from the untraced server: spans would distort it
            "server.rss_growth_mb_per_1k":
                self.rss_growth_mb / len(self.calls) * 1e3,
            "trace.requests": len(self.traced_calls),
            "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
            "trace.coverage_frac": tracing.coverage(
                {c.request.request_id: (c.sent, c.received)
                 for c in self.traced_calls if c.response is not None},
                self.server_rec.spans,
            ),
        })
        return out


async def traced_phase(server: Server, spec: AdmitSpec,
                       warm: List[AdmissionRequest],
                       trace: List[AdmissionRequest],
                       seconds: float) -> TracedPhase:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{os.getpid()}.json"
    traced_server, _ = await set_up(spec, warm, spans)
    try:
        await traced_server.client.stats()  # starts measuring
        client_rec = tracing.Recorder()
        sides = {server: ([], Feed(trace)), traced_server: ([], Feed(trace))}
        walls = {server: 0.0, traced_server: 0.0}
        rss_before = server.memory_mb("VmRSS")
        for block in range(TRACED_BLOCKS):
            target = server if block % 2 == 0 else traced_server
            if target is traced_server:
                layers.install_client(client_rec)
            try:
                got, took = await closed_loop(
                    target, sides[target][1], spec.in_flight,
                    seconds / TRACED_BLOCKS,
                )
            finally:
                client_rec.unpatch_all()
            sides[target][0].extend(got)
            walls[target] += took
        rss_growth = server.memory_mb("VmRSS") - rss_before
        await traced_server.client.stats()  # stops measuring
    finally:
        await traced_server.stop()
    server_rec = tracing.Recorder.load(spans)
    spans.unlink()
    return TracedPhase(
        sides[server][0], walls[server],
        sides[traced_server][0], walls[traced_server],
        server_rec, client_rec, rss_growth,
    )


async def _run(name: str, seed: int, seconds: float,
               traced: bool) -> Dict[str, object]:
    spec = SPECS[name]
    warm, trace = build_inputs(spec, seed, seconds)
    setups: List[float] = []
    for repeat in range(SETUP_REPEATS):
        server, took = await set_up(spec, warm)
        setups.append(took)
        if repeat < SETUP_REPEATS - 1:
            await server.stop()
    rss, cache = 0.0, {}
    try:
        if traced:
            phase = await traced_phase(server, spec, warm, trace, seconds)
            calls, wall = phase.calls, phase.wall
        else:
            calls, wall = await closed_loop(
                server, Feed(trace), spec.in_flight, seconds
            )
            rss = server.memory_mb()
            cache = (await server.client.stats()).get("cache", {})
    finally:
        await server.stop()

    measured, problems = check(calls, spec, seed)
    outcome = measured
    per_layer: Dict[str, float] = {}
    info_traced: Dict[str, str] = {}
    if traced:
        traced_outcome, traced_problems = check(
            phase.traced_calls, spec, seed
        )
        outcome = measured + traced_outcome
        problems += [f"traced server: {p}" for p in traced_problems]
        per_layer = phase.metrics(measured.good, traced_outcome.good)
        info_traced = {
            "server_self_ms_per_request": tracing.self_time_summary(
                phase.server_rec.spans, len(phase.traced_calls)),
        }
    latency = stats.latency_summary([
        c.received - c.sent for c in calls
        if c.response is not None and c.response.status != "shed"
    ])
    info = {
        "digest": f"{decision_digest(calls, spec.digest_prefix)} "
                  f"(first {spec.digest_prefix} decisions)",
        "latency_samples": latency["n"],
        "admitted": sum(1 for c in calls if c.response is not None
                        and c.response.admitted),
        "failed_frac": outcome.failed_frac,
        "shed": outcome.shed,
        "errors": outcome.errors,
        "anomalies": outcome.anomalies,
        "setup_samples_s": [round(t, 4) for t in setups],
        "server_cache": json.dumps(cache, sort_keys=True),
        **info_traced,
    }
    return {
        "outcome": outcome,
        "problems": problems,
        "end_to_end": {
            "setup_s": stats.median(setups),
            "goodput_per_s": measured.good / wall,
            "p50_ms": latency["p50_ms"],
            "p99_ms": latency["p99_ms"],
            "rss_mb": rss,
        },
        "per_layer": per_layer,
        "info": info,
    }


def run(name: str, seed: int, seconds: float,
        traced: bool) -> Dict[str, object]:
    return asyncio.run(_run(name, seed, seconds, traced))
