"""Bursty and open-loop load generation + online differential audit.

The loadgen is the service's adversary and notary in one: it drives
seeded, reproducible admission traffic, injects chaos against one
server through a :class:`repro.faults.injectors.FaultSchedule`
(blackhole windows → failed outcomes → the breaker opens), and audits
**every** response against the offline ground truth
(:func:`repro.service.audit.audit_response`).

Every load driver here and in :mod:`repro.fleet` shares three pieces:

* :class:`LoadPopulation` — the request population: one task-set pool
  builder and one per-request draw (pool set, optional churn, estimate
  profile), so bursts and open-loop traces come from the same stream;
* :class:`ResponseTally` — the status/rung/latency counts and the one
  ``audit_response`` call, listing at most :data:`MAX_LISTED_ANOMALIES`
  anomaly strings while counting all of them;
* :func:`feed_health` — one burst's synthesized offload outcomes and
  the degraded server's breaker open/re-close bookkeeping.

The generator is transport-agnostic: :func:`run_loadgen` drives any
``async submit(request) -> response`` callable, so the same audit runs
against an in-process :class:`~repro.service.server.ODMService` (tests)
or a TCP connection to ``repro serve`` (:class:`ServiceClient`, CI
smoke).  Its latency is the service's own enqueue → resolve time
(:attr:`AdmissionResponse.latency`); :func:`run_open_loop` measures
what the caller waited, from the scheduled arrival.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, replace
from typing import (
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.task import TaskSet
from ..faults.injectors import FaultSchedule
from ..sim.rng import RandomStreams
from ..workloads.generator import random_offloading_task_set
from ..observability.metrics import percentile
from .audit import audit_response
from .request import AdmissionRequest, AdmissionResponse
from .server import ServiceClient

__all__ = [
    "LoadGenConfig",
    "LoadGenReport",
    "LoadPopulation",
    "MAX_LISTED_ANOMALIES",
    "OpenLoopConfig",
    "OpenLoopReport",
    "ResponseTally",
    "ServiceClient",
    "feed_health",
    "generate_bursts",
    "generate_open_loop",
    "audit_response",
    "run_loadgen",
    "run_open_loop",
]

#: Estimate *profiles* drawn per request (cycled over the configured
#: servers).  A small discrete palette, not continuous jitter: online
#: clients re-poll the same believed state, and those repeats are what
#: make the solver cache and in-batch dedup see realistic traffic.
ESTIMATE_PALETTE = (
    (1.0, 1.0, 1.0),
    (1.0, 1.1, 0.9),
    (0.9, 1.0, 1.25),
    (1.1, 1.0, 1.0),
)

#: Anomaly strings a report lists; every anomaly is still counted.
MAX_LISTED_ANOMALIES = 32


# ----------------------------------------------------------------------
# the request population
# ----------------------------------------------------------------------
def _churn_task_set(tasks: TaskSet, rng) -> TaskSet:
    """One near-miss mutation: re-scale one task's benefit weight.

    The weight multiplies MCKP item *values* only (never weights), so
    the churned set is always valid, shares every other class with its
    ancestor, and differs in exactly one — the canonical delta-solve
    near miss.  Deterministic given the caller's stream state.
    """
    items = list(tasks)
    index = int(rng.integers(len(items)))
    task = items[index]
    factor = 0.8 + 0.4 * float(rng.random())
    items[index] = replace(task, weight=task.weight * factor)
    return TaskSet(items)


@dataclass(frozen=True)
class LoadPopulation:
    """The request population every load shape draws from.

    Task sets rotate through a pool of ``unique_sets`` generated sets
    and estimates come from :data:`ESTIMATE_PALETTE`, so identical
    instances recur — the traffic shape the cache and dedup layers
    exist for.
    """

    seed: int = 0
    unique_sets: int = 10
    num_tasks: int = 5
    total_utilization: float = 0.55
    servers: Tuple[str, ...] = ("edge", "cloud", "flaky")
    #: per-request probability of *churning* the drawn task set: one
    #: task's benefit weight is re-scaled, producing a near-miss
    #: variant of a pooled instance — the mostly-stable-population
    #: serving pattern the delta solver exists for.  Weight scales MCKP
    #: item values only, so churn never alters admissibility.
    churn_rate: float = 0.0
    audit: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ValueError("churn_rate must be in [0, 1]")
        if self.unique_sets < 1:
            raise ValueError("unique_sets must be >= 1")

    def population(self, pool=None):
        """``(pool, arrivals)``: the task-set pool and the seeded stream
        every per-request draw comes from.

        ``pool`` optionally supplies the pool directly (a sequence of
        :class:`~repro.core.task.TaskSet`), letting scenario campaigns
        (:func:`repro.scenarios.bursts.scenario_pool`) feed diverse
        generated workloads instead of the built-in homogeneous pool.
        The arrival stream is seeded identically either way.
        """
        streams = RandomStreams(seed=self.seed)
        wl_rng = streams.get("workloads")
        arrivals = streams.get("arrivals")
        if pool is None:
            pool = [
                random_offloading_task_set(
                    wl_rng,
                    num_tasks=self.num_tasks,
                    total_utilization=self.total_utilization,
                )
                for _ in range(self.unique_sets)
            ]
        else:
            pool = list(pool)
            if not pool:
                raise ValueError("explicit task-set pool must be non-empty")
        return pool, arrivals

    def draw(self, arrivals, pool, request_id: str) -> AdmissionRequest:
        """One request: a pool set, maybe churned, under one profile."""
        tasks = pool[int(arrivals.integers(len(pool)))]
        if (
            self.churn_rate > 0.0
            and float(arrivals.random()) < self.churn_rate
        ):
            tasks = _churn_task_set(tasks, arrivals)
        profile = ESTIMATE_PALETTE[
            int(arrivals.integers(len(ESTIMATE_PALETTE)))
        ]
        return AdmissionRequest(
            request_id=request_id,
            tasks=tasks,
            server_estimates={
                server: float(profile[i % len(profile)])
                for i, server in enumerate(self.servers)
            },
        )


# ----------------------------------------------------------------------
# the response tally (the one audit_response call of every driver)
# ----------------------------------------------------------------------
@dataclass
class ResponseTally:
    """Status, rung and latency counts plus the audit of every answer.

    :meth:`record` is where every load driver — loadgen, open loop,
    fleet campaign, fleet-scale restart probes — hands a response to
    :func:`audit_response`.  What ``latencies`` measure is the
    driver's to say; shed responses add none.
    """

    requests: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    rungs_seen: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    anomalies: List[str] = field(default_factory=list)
    anomaly_count: int = 0

    @property
    def ok(self) -> bool:
        """True iff the audit found zero invariant violations."""
        return self.anomaly_count == 0

    def record(
        self,
        request: AdmissionRequest,
        response: AdmissionResponse,
        latency: float,
        resolution: int,
        audit: bool = True,
    ) -> None:
        """Count one answered request; audit it unless it was shed."""
        self.requests += 1
        if response.status == "admitted":
            self.admitted += 1
        elif response.status == "rejected":
            self.rejected += 1
        else:
            self.shed += 1
        rung = response.degradation
        self.rungs_seen[rung] = self.rungs_seen.get(rung, 0) + 1
        if response.status == "shed":
            return  # no decision: no latency, nothing to audit
        self.latencies.append(latency)
        if audit:
            found = audit_response(request, response, resolution)
            self.anomaly_count += len(found)
            listed = MAX_LISTED_ANOMALIES - len(self.anomalies)
            self.anomalies.extend(found[:listed])

    def to_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "rungs_seen": dict(self.rungs_seen),
            "anomaly_count": self.anomaly_count,
            "anomalies": list(self.anomalies),
            "ok": self.ok,
        }


# ----------------------------------------------------------------------
# bursty load with a chaos window
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LoadGenConfig(LoadPopulation):
    """Knobs of one reproducible loadgen run."""

    bursts: int = 30
    mean_burst_size: float = 5.0
    mean_burst_gap: float = 0.25
    degraded_server: str = "flaky"
    #: close one breaker window every this many bursts
    window_every: int = 3
    #: outcomes synthesized per server per burst (probes keeping the
    #: health windows evidenced even when routing avoids a server)
    probes_per_burst: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.bursts < 1:
            raise ValueError("bursts must be >= 1")
        if self.mean_burst_size < 1:
            raise ValueError("mean_burst_size must be >= 1")
        if self.degraded_server not in self.servers:
            raise ValueError(
                f"degraded_server {self.degraded_server!r} "
                f"not in servers {self.servers}"
            )
        if self.window_every < 1:
            raise ValueError("window_every must be >= 1")

    def chaos_schedule(self) -> FaultSchedule:
        """Blackhole the degraded server over the middle of the run.

        The virtual timeline advances ``mean_burst_gap`` per burst, so
        the window covers roughly the middle third of the bursts: the
        breaker must open mid-run and re-close after recovery.
        """
        horizon = self.bursts * self.mean_burst_gap
        return FaultSchedule.partition(
            start=horizon / 3.0,
            duration=horizon / 3.0,
            label=f"degrade:{self.degraded_server}",
        )


@dataclass(frozen=True)
class Burst:
    """One arrival burst on the virtual timeline."""

    time: float
    requests: Tuple[AdmissionRequest, ...]
    degraded: bool


def generate_bursts(config: LoadGenConfig, pool=None) -> List[Burst]:
    """The full, deterministic arrival trace for ``config``.

    ``pool`` overrides the task-set pool (see
    :meth:`LoadPopulation.population`).
    """
    pool, arrivals = config.population(pool)
    chaos = config.chaos_schedule()
    bursts: List[Burst] = []
    time = 0.0
    counter = 0
    for _ in range(config.bursts):
        # Burstiness lives in the Poisson sizes; spacing is deterministic
        # so the chaos window always covers its third of the bursts.
        time += config.mean_burst_gap
        size = 1 + int(arrivals.poisson(config.mean_burst_size - 1))
        requests = tuple(
            config.draw(arrivals, pool, f"req-{counter + k:05d}")
            for k in range(size)
        )
        counter += size
        bursts.append(
            Burst(
                time=time,
                requests=requests,
                degraded=chaos.blackholed(time),
            )
        )
    return bursts


@dataclass
class LoadGenReport(ResponseTally):
    """What the run did and what the audit concluded.

    ``latencies`` are the service's own enqueue → resolve times
    (:attr:`AdmissionResponse.latency`).
    """

    bursts: int = 0
    breaker_opened: bool = False
    breaker_reclosed: bool = False
    stats: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        record = super().to_dict()
        record.update(
            {
                "bursts": self.bursts,
                "breaker_opened": self.breaker_opened,
                "breaker_reclosed": self.breaker_reclosed,
                "latency": {
                    "service_p50": percentile(self.latencies, 50),
                    "service_p99": percentile(self.latencies, 99),
                },
                "stats": self.stats,
            }
        )
        return record


# ----------------------------------------------------------------------
# driving
# ----------------------------------------------------------------------
SubmitFn = Callable[[AdmissionRequest], Awaitable[AdmissionResponse]]
SubmitBatchFn = Callable[
    [Sequence[AdmissionRequest]], Awaitable[List[AdmissionResponse]]
]
#: Health-surface callbacks may be sync (bound service methods) or
#: async (ServiceClient protocol ops); results are awaited when needed.
OutcomeFn = Callable[[str, bool, float], object]
WindowFn = Callable[[], object]


async def _maybe_await(value):
    if asyncio.iscoroutine(value) or isinstance(value, asyncio.Future):
        return await value
    return value


async def feed_health(
    config: LoadGenConfig,
    report: LoadGenReport,
    index: int,
    burst: Burst,
    responses: Sequence[AdmissionResponse],
    record_outcome: Optional[OutcomeFn],
    close_window: Optional[WindowFn],
) -> None:
    """Feed burst ``index``'s offload outcomes; watch the breaker.

    Every server gets ``probes_per_burst`` synthesized outcomes, then
    every offloaded placement in ``responses`` one more; outcomes on
    the degraded server fail while the burst is degraded.  Every
    ``window_every`` bursts the health window closes, and the degraded
    server's breaker state marks the report opened, then re-closed.
    """
    if record_outcome is not None:
        servers = [
            server
            for server in config.servers
            for _ in range(config.probes_per_burst)
        ]
        servers += [
            server
            for response in responses
            for server, r in response.placements.values()
            if server is not None and r > 0
        ]
        for server in servers:
            ok = not (burst.degraded and server == config.degraded_server)
            await _maybe_await(record_outcome(server, ok, burst.time))
    if close_window is not None and (index + 1) % config.window_every == 0:
        states = await _maybe_await(close_window())
        state = states.get(config.degraded_server)
        if state == "open":
            report.breaker_opened = True
        if report.breaker_opened and state == "closed":
            report.breaker_reclosed = True


async def run_loadgen(
    submit: SubmitFn,
    config: LoadGenConfig,
    record_outcome: Optional[OutcomeFn] = None,
    close_window: Optional[WindowFn] = None,
    stats: Optional[Callable[[], Dict[str, object]]] = None,
    resolution: int = 20_000,
    submit_batch: Optional[SubmitBatchFn] = None,
    pool=None,
) -> LoadGenReport:
    """Drive the full arrival trace through ``submit`` and audit it.

    ``record_outcome``/``close_window``/``stats`` are the service's
    health surface — bound methods for in-process runs, protocol ops
    for :class:`ServiceClient` runs; any may be ``None`` (skipped).
    When ``submit_batch`` is given, each burst goes out as one
    vectorized call (the wire's ``admit_batch`` op) instead of one
    pipelined ``submit`` per request — same responses, fewer round
    trips.  ``pool`` feeds an explicit task-set pool to
    :func:`generate_bursts` (scenario campaigns).
    """
    bursts = generate_bursts(config, pool=pool)
    report = LoadGenReport(bursts=len(bursts))

    for index, burst in enumerate(bursts):
        if submit_batch is not None:
            responses = list(await submit_batch(burst.requests))
        else:
            responses = await asyncio.gather(
                *(submit(request) for request in burst.requests)
            )
        for request, response in zip(burst.requests, responses):
            report.record(
                request, response, response.latency, resolution,
                config.audit,
            )
        await feed_health(
            config, report, index, burst, responses,
            record_outcome, close_window,
        )

    if stats is not None:
        report.stats = await _maybe_await(stats())
    return report


# ----------------------------------------------------------------------
# sustained open-loop load (scaled-Poisson arrivals)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpenLoopConfig(LoadPopulation):
    """Knobs of one open-loop (arrival-rate-driven) load run.

    The arrival process is Poisson at ``rate * rate_multiplier``
    *virtual* requests per second — the "req/s-equivalent" axis of the
    fleet-scale sweep.  ``dispatch_scale`` maps the virtual timeline
    onto the wall clock: a wall dispatch rate of
    ``rate * rate_multiplier * dispatch_scale`` req/s, so a 10⁴–10⁶
    req/s-equivalent regime replays at a rate a Python service can
    physically absorb while preserving the *shape* of the process
    (same seeded gap sequence, merely dilated).

    Open loop means arrival times are fixed by the seed **before** the
    run and never wait on completions — a slow service faces a growing
    backlog exactly like production traffic, and recorded latency is
    ``completion - scheduled_arrival`` (coordinated-omission-safe: the
    queueing delay a stalled server imposes on punctual arrivals is
    *in* the number, not silently dropped from it).
    """

    #: virtual arrival rate (req/s-equivalent) before the multiplier
    rate: float = 10_000.0
    rate_multiplier: float = 1.0
    requests: int = 200
    #: wall req/s dispatched per virtual req/s (timeline dilation)
    dispatch_scale: float = 0.01

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rate <= 0 or self.rate_multiplier <= 0:
            raise ValueError("rate and rate_multiplier must be positive")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.dispatch_scale <= 0:
            raise ValueError("dispatch_scale must be positive")

    @property
    def virtual_rate(self) -> float:
        """The offered req/s-equivalent rate."""
        return self.rate * self.rate_multiplier

    @property
    def wall_rate(self) -> float:
        """The wall-clock dispatch rate (req/s actually sent)."""
        return self.virtual_rate * self.dispatch_scale


def generate_open_loop(
    config: OpenLoopConfig, pool=None
) -> List[Tuple[float, AdmissionRequest]]:
    """The deterministic ``(wall_offset_seconds, request)`` trace.

    Replayable: the same seed yields the same arrivals and the same
    requests regardless of how the service behaves.  Requests come from
    the same :class:`LoadPopulation` draw as :func:`generate_bursts`,
    so the cache tier sees realistic repeat traffic; ``pool`` overrides
    the pool exactly as there.
    """
    pool, arrivals = config.population(pool)
    mean_gap = 1.0 / config.virtual_rate
    dilation = 1.0 / config.dispatch_scale  # virtual→wall timeline factor
    trace: List[Tuple[float, AdmissionRequest]] = []
    time = 0.0
    for index in range(config.requests):
        time += float(arrivals.exponential(mean_gap))
        request_id = f"ol-{config.seed}-{index:06d}"
        trace.append(
            (time * dilation, config.draw(arrivals, pool, request_id))
        )
    return trace


@dataclass
class OpenLoopReport(ResponseTally):
    """Outcome of one open-loop run (one sweep cell).

    ``requests`` includes the ``errors`` (submits that raised);
    ``latencies`` are coordinated-omission-safe: completion −
    *scheduled* arrival.
    """

    offered_rate: float = 0.0
    wall_rate: float = 0.0
    errors: int = 0
    duration_seconds: float = 0.0
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        """Requests that came back with a response."""
        return self.requests - self.errors

    @property
    def throughput(self) -> float:
        """Completed wall req/s over the span of the run."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.completed / self.duration_seconds

    def to_dict(self) -> Dict[str, object]:
        record = super().to_dict()
        record.update(
            {
                "offered_rate_equivalent": self.offered_rate,
                "wall_dispatch_rate": self.wall_rate,
                "completed": self.completed,
                "errors": self.errors,
                "throughput": self.throughput,
                "duration_seconds": self.duration_seconds,
                "latency": {
                    "p50": percentile(self.latencies, 50),
                    "p99": percentile(self.latencies, 99),
                    "max": max(self.latencies, default=0.0),
                },
                "stats": self.stats,
            }
        )
        return record


async def run_open_loop(
    submit: SubmitFn,
    config: OpenLoopConfig,
    resolution: int = 20_000,
    stats: Optional[Callable[[], Dict[str, object]]] = None,
    pool=None,
    trace: Optional[List[Tuple[float, AdmissionRequest]]] = None,
) -> OpenLoopReport:
    """Fire the open-loop trace at ``submit`` and audit every response.

    Every request is scheduled as its own task sleeping until its
    pre-computed wall offset, so dispatch never waits on completions
    (open loop).  Submit failures (e.g. the router giving up) count as
    ``errors`` — the request's slot in the timeline is still paid.
    """
    if trace is None:
        trace = generate_open_loop(config, pool=pool)
    report = OpenLoopReport(
        offered_rate=config.virtual_rate,
        wall_rate=config.wall_rate,
    )
    loop = asyncio.get_running_loop()
    start = loop.time()
    outcomes: List[Optional[Tuple[AdmissionRequest, object, float]]] = [
        None
    ] * len(trace)

    async def fire(index: int, offset: float, request) -> None:
        delay = offset - (loop.time() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            response = await submit(request)
        except Exception as exc:  # noqa: BLE001 — per-request failure
            outcomes[index] = (request, exc, 0.0)
            return
        latency = (loop.time() - start) - offset
        outcomes[index] = (request, response, latency)

    await asyncio.gather(
        *(
            fire(index, offset, request)
            for index, (offset, request) in enumerate(trace)
        )
    )
    report.duration_seconds = loop.time() - start

    for outcome in outcomes:
        assert outcome is not None
        request, response, latency = outcome
        if isinstance(response, BaseException):
            report.requests += 1
            report.errors += 1
        else:
            report.record(
                request, response, latency, resolution, config.audit
            )

    if stats is not None:
        report.stats = await _maybe_await(stats())
    return report
