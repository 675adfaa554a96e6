"""The asyncio online ODM service + its TCP front-end.

:class:`ODMService` turns the paper's batch Offloading Decision Manager
into an online admission service:

* clients ``await service.submit(request)`` concurrently;
* requests are coalesced into micro-batches
  (:class:`~repro.service.batching.MicroBatcher`);
* each batch's MCKP instances are solved through the cache-aware,
  deduplicated :class:`~repro.service.sharding.ShardSolver` over the
  service's own :class:`~repro.knapsack.SolverCache`;
* a bounded queue provides backpressure (overflow → ``shed``), and
  occupancy watermarks plus per-server circuit breakers drive the
  degradation ladder (:mod:`repro.service.degradation`);
* **every** admitted response — whatever the rung — is re-verified
  against Theorem 3 before the future resolves.  The service never
  hands out a deadline guarantee it has not just checked.

A batch's leading exact cache hits are answered on the event loop,
by lookup alone.  From its first miss on, the batch crosses to a worker
thread (``asyncio.to_thread``), so the event loop keeps accepting and
shedding while a batch solves; a batch with no miss never hops.

:func:`serve_tcp` exposes the service on a TCP socket — the transport
behind ``repro serve`` / ``repro loadgen`` — speaking the
length-prefixed binary framing of :mod:`repro.service.protocol`;
:class:`ServiceClient` is its one client.  Operations: ``admit``,
``admit_batch``, ``outcome``, ``window``, ``gossip``, ``cache_sync``,
``stats``, ``shutdown``.  Admission records are parsed through the
service's :class:`~repro.service.memo.RequestMemo`, so a repeated
task set is parsed and reduced to its MCKP instance once.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.odm import offload_assignments, read_placements
from ..core.schedulability import theorem3_test
from ..core.task import OffloadableTask
from ..knapsack import SolverCache
from ..observability import Observability
from ..runtime.health import BreakerBank
from .aio import cancel_and_wait
from .batching import BatchPolicy, MicroBatcher
from .degradation import DegradationLevel, DegradationPolicy
from .memo import MemoEntry, RequestMemo
from .protocol import (
    HEADER,
    AdmitEncoder,
    FrameError,
    decode_header,
    decode_payload,
    encode_frame,
)
from .request import (
    AdmissionRequest,
    AdmissionResponse,
    build_request_instance,
)
from .sharding import ShardSolver

__all__ = [
    "ConnectionLost",
    "ODMService",
    "ServiceClient",
    "TcpServerControl",
    "serve_tcp",
]


class ConnectionLost(ConnectionError):
    """The TCP connection died with requests still in flight.

    Raised by :class:`ServiceClient` to fail pipelined futures *fast*
    when the peer disappears — the fleet router turns this into an
    immediate failover instead of a hung await.
    """


@dataclass
class _Pending:
    """One queued request with its completion future."""

    request: AdmissionRequest
    future: "asyncio.Future[AdmissionResponse]"
    memo: Optional[MemoEntry] = None
    enqueued: float = field(default_factory=perf_counter)


class ODMService:
    """Online admission control over the §5 decision pipeline.

    Parameters
    ----------
    resolution:
        DP capacity quantization forwarded to :func:`solve_dp`.
    batch_policy / degradation_policy:
        See :class:`BatchPolicy` / :class:`DegradationPolicy`.
    observability:
        Optional :class:`Observability` bundle; service metrics land in
        its registry, events on its bus.
    breaker_kwargs:
        Constructor kwargs for the per-server
        :class:`~repro.runtime.health.CircuitBreaker` instances of
        :attr:`health` (a :class:`~repro.runtime.health.BreakerBank`).
    replica_id:
        This service's identity in a fleet — stamped onto gossip
        beacons (:meth:`beacon`) and ignored for standalone use.
    dedup_capacity:
        Bounded LRU of settled request ids for idempotent retries: a
        re-submitted request id is answered by the original future
        instead of being re-admitted (``0`` disables dedup).  Shed
        outcomes and failures are *not* remembered, so a genuine retry
        after backpressure gets a fresh decision.
    """

    def __init__(
        self,
        resolution: int = 20_000,
        batch_policy: Optional[BatchPolicy] = None,
        degradation_policy: Optional[DegradationPolicy] = None,
        observability: Optional[Observability] = None,
        breaker_kwargs: Optional[Dict[str, object]] = None,
        replica_id: str = "replica-0",
        dedup_capacity: int = 4096,
    ) -> None:
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        if dedup_capacity < 0:
            raise ValueError("dedup_capacity must be non-negative")
        self.resolution = int(resolution)
        self.replica_id = str(replica_id)
        self._dedup_capacity = int(dedup_capacity)
        self._dedup: "OrderedDict[str, asyncio.Future[AdmissionResponse]]" = (
            OrderedDict()
        )
        self._beacon_seq = 0
        self.batch_policy = batch_policy or BatchPolicy()
        self.degradation_policy = (
            degradation_policy or DegradationPolicy()
        )
        # a deeper-than-default warm-start index: churned online
        # traffic produces many distinct near-miss instances, and each
        # retained state turns a future scratch solve into a frontier
        # resume
        self.cache = SolverCache(delta_maxstates=64)
        self.shard_solver = ShardSolver(self.cache)
        self.observability = (
            observability
            if observability is not None
            else Observability.disabled()
        )
        self.health = BreakerBank(**(breaker_kwargs or {}))
        self._window_index = 0
        self._outcome_clock = 0.0

        self._batcher: Optional[MicroBatcher[_Pending]] = None
        self._loop_task: Optional[asyncio.Task] = None
        self._busy = False
        self._forced_level: Optional[DegradationLevel] = None
        self._level = DegradationLevel.EXACT

        reg = self.observability.metrics
        self._m_requests = reg.counter("service.requests")
        self._m_admitted = reg.counter("service.admitted")
        self._m_rejected = reg.counter("service.rejected")
        self._m_shed = reg.counter("service.shed")
        self._m_batches = reg.counter("service.batches")
        self._m_degraded = reg.counter("service.degraded_batches")
        self._m_loop_answers = reg.counter("service.loop_answers")
        self._m_hopped = reg.counter("service.hopped_batches")
        self._m_queue = reg.gauge("service.queue_depth")
        self._m_level = reg.gauge("service.degradation_level")
        self._m_batch_size = reg.histogram("service.batch_size")
        self._m_latency = reg.histogram("service.solve_latency")
        self._m_dedup = reg.counter("service.dedup_hits")
        self._m_gossip = reg.counter("service.gossip_absorbed")
        # surface hit/miss/near-hit counters in the same registry the
        # rest of the service reports through
        self.cache.bind_metrics(reg)
        # the wire path's parsed-request memo remembers as many
        # distinct contents as the solver cache holds solutions
        self.request_memo = RequestMemo(self.cache.maxsize)
        self.request_memo.bind_metrics(reg)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._loop_task is not None

    async def start(self) -> "ODMService":
        """Create the queue and the batch loop."""
        if self.started:
            return self
        self._batcher = MicroBatcher(self.batch_policy)
        self._loop_task = asyncio.create_task(
            self._batch_loop(), name="odm-service-batch-loop"
        )
        return self

    async def stop(self, drain: bool = True) -> None:
        """Shut down cleanly.

        ``drain=True`` (default) answers everything already queued
        before stopping; ``drain=False`` sheds the queue immediately.
        """
        if not self.started:
            return
        assert self._batcher is not None
        if drain:
            # staged > 0 means a collect() holds requests in its local
            # batch (linger wait); cancelling the loop then would lose
            # their futures, so wait for the batch to land.
            while (
                self._batcher.depth > 0
                or self._batcher.staged > 0
                or self._busy
            ):
                await asyncio.sleep(0.001)
        task = self._loop_task
        self._loop_task = None
        await cancel_and_wait(task)
        # anything still queued (drain=False) is shed, never dropped
        while True:
            try:
                pending = self._batcher._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            self._resolve(
                pending,
                self._response(pending, status="shed", batch_size=0),
            )
        self._batcher = None

    async def __aenter__(self) -> "ODMService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    async def submit(
        self,
        request: AdmissionRequest,
        memo: Optional[MemoEntry] = None,
    ) -> AdmissionResponse:
        """Queue one admission request and await its response.

        Idempotent on ``request_id``: a retried or hedged duplicate of
        an in-flight or settled request shares the original future, so
        one id is decided exactly once (never double-admitted).
        ``memo`` is the :attr:`request_memo` entry the wire path parsed
        ``request`` through; the batch loop reuses its MCKP instance.
        """
        if not self.started:
            raise RuntimeError("service is not started")
        assert self._batcher is not None
        self._m_requests.inc()
        bus = self.observability.bus
        shared = self._dedup.get(request.request_id)
        if shared is not None:
            self._m_dedup.inc()
            if bus.enabled:
                bus.emit(
                    "service.dedup",
                    self._outcome_clock,
                    request=request.request_id,
                    settled=shared.done(),
                )
            # shield: a cancelled duplicate waiter must not cancel the
            # original request's future out from under its owner
            return await asyncio.shield(shared)
        pending = _Pending(
            request, asyncio.get_running_loop().create_future(), memo
        )
        if not self._batcher.offer(pending):
            response = self._response(
                pending, status="shed", batch_size=0
            )
            self._m_shed.inc()
            if bus.enabled:
                bus.emit(
                    "service.shed",
                    self._outcome_clock,
                    request=request.request_id,
                    queue_depth=self._batcher.depth,
                )
            return response
        self._register_dedup(request.request_id, pending.future)
        self._m_queue.set(self._batcher.depth)
        if bus.enabled:
            bus.emit(
                "service.request",
                self._outcome_clock,
                request=request.request_id,
                queue_depth=self._batcher.depth,
            )
        return await pending.future

    def _register_dedup(
        self,
        request_id: str,
        future: "asyncio.Future[AdmissionResponse]",
    ) -> None:
        if self._dedup_capacity <= 0:
            return
        dedup = self._dedup
        dedup[request_id] = future
        dedup.move_to_end(request_id)
        # Evict settled entries beyond capacity; in-flight entries are
        # never evicted (they are bounded by the queue capacity anyway).
        while len(dedup) > self._dedup_capacity:
            oldest_id = next(iter(dedup))
            if not dedup[oldest_id].done():
                break
            del dedup[oldest_id]

        def _cleanup(fut: "asyncio.Future[AdmissionResponse]") -> None:
            # shed/failed attempts must not poison genuine retries
            forget = (
                fut.cancelled()
                or fut.exception() is not None
                or fut.result().status == "shed"
            )
            if forget and dedup.get(request_id) is fut:
                del dedup[request_id]

        future.add_done_callback(_cleanup)

    # ------------------------------------------------------------------
    # health / breaker surface
    # ------------------------------------------------------------------
    def breaker_state(self, server_id: str) -> str:
        """Current breaker state (``closed`` for unknown servers)."""
        return self.health.state(server_id)

    def record_outcome(
        self, server_id: str, ok: bool, time: Optional[float] = None
    ) -> None:
        """Feed one offload outcome observed against ``server_id``;
        ``time`` (outcome time) only advances the event clock."""
        if time is not None:
            self._outcome_clock = max(self._outcome_clock, time)
        self.health.record(server_id, int(ok), int(not ok))

    def close_health_window(self) -> Dict[str, str]:
        """Advance every server's breaker one window; returns states."""
        bus = self.observability.bus
        window = self._window_index
        self._window_index += 1
        before = {
            server_id: breaker.state
            for server_id, breaker in self.health.breakers.items()
        }
        states = self.health.close_window(window)
        for server_id, after in states.items():
            if bus.enabled and after != before[server_id]:
                bus.emit(
                    "breaker.state",
                    self._outcome_clock,
                    window=window,
                    old=before[server_id],
                    new=after,
                    server=server_id,
                )
        return states

    def force_level(self, level: Optional[DegradationLevel]) -> None:
        """Pin the ladder rung (tests/ops); ``None`` resumes policy."""
        self._forced_level = level

    # ------------------------------------------------------------------
    # gossip surface
    # ------------------------------------------------------------------
    def beacon(self) -> Dict[str, object]:
        """This replica's health beacon (a plain-JSON gossip payload).

        Carries the signals a router or peer needs *before* the socket
        dies: queue watermark, degradation rung and per-server breaker
        states.  ``seq`` increases monotonically so receivers can
        discard stale beacons regardless of arrival order.  Only
        breakers whose state rests on this replica's own outcome
        evidence are advertised: re-advertising a gossiped ``open``
        would echo one outage around the fleet, and a stale echo
        re-trips the breaker of the replica that is probing recovery.
        """
        self._beacon_seq += 1
        depth = self._batcher.depth if self._batcher is not None else 0
        return {
            "replica_id": self.replica_id,
            "seq": self._beacon_seq,
            "queue_depth": depth,
            "queue_capacity": self.batch_policy.queue_capacity,
            "level": self._level.label,
            "breakers": {
                server_id: breaker.state
                for server_id, breaker in sorted(self.health.breakers.items())
                if not breaker.remote
            },
            "shed": self.observability.metrics.value("service.shed"),
        }

    def absorb_beacon(self, record: Mapping[str, object]) -> None:
        """Fold a peer replica's beacon into local breaker state.

        A peer reporting an *open* breaker for server S trips our own
        breaker for S (:meth:`CircuitBreaker.apply_remote`): the fleet
        stops offering a dead server everywhere after one replica has
        paid the evidence, instead of each replica rediscovering the
        outage on its own traffic.  A peer reporting ``closed`` only
        re-closes a *probing* (half-open) local breaker — a locally
        open breaker still pays its cooldown first.
        """
        breakers = record.get("breakers") or {}
        if not isinstance(breakers, Mapping):
            raise ValueError("beacon breakers must be a mapping")
        origin = str(record.get("replica_id", "?"))
        bus = self.observability.bus
        self._m_gossip.inc()
        for server_id, state in sorted(breakers.items()):
            server_id = str(server_id)
            if state not in ("open", "closed"):
                continue
            if state == "closed" and server_id not in self.health.breakers:
                continue  # no local breaker to reclose; don't create one
            breaker = self.health.breaker(server_id)
            before = breaker.state
            after = breaker.apply_remote(
                str(state), window=self._window_index
            )
            if bus.enabled and after != before:
                bus.emit(
                    "breaker.state",
                    self._outcome_clock,
                    window=self._window_index,
                    old=before,
                    new=after,
                    server=server_id,
                    source=f"gossip:{origin}",
                )

    # ------------------------------------------------------------------
    # cache tier surface (fleet warm replication)
    # ------------------------------------------------------------------
    # The protocol logic lives in :mod:`repro.fleet.cachetier`; these
    # delegates import it lazily so ``repro.service`` never drags the
    # fleet package (which imports back into service) in at import time.
    def cache_digest(self, limit: int = 32) -> Dict[str, object]:
        """Gossip-piggybacked cache advertisement."""
        from ..fleet.cachetier import cache_digest

        return cache_digest(self.cache, limit)

    def cache_sync_reply(
        self,
        have=None,
        budget=None,
        states=None,
        max_bytes=None,
    ) -> Dict[str, object]:
        """Serve one ``cache_sync`` pull (see fleet.cachetier budgets)."""
        from ..fleet.cachetier import build_sync_reply

        return build_sync_reply(
            self.cache,
            have=have,
            budget=budget,
            states=states,
            max_bytes=max_bytes,
        )

    # ------------------------------------------------------------------
    # batch processing
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        assert self._batcher is not None
        while True:
            batch = await self._batcher.collect()
            self._busy = True
            try:
                await self._process_batch(batch)
            except Exception as exc:  # keep the loop alive; fail batch
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(exc)
            finally:
                self._busy = False

    def _current_level(self) -> DegradationLevel:
        if self._forced_level is not None:
            return self._forced_level
        assert self._batcher is not None
        return self.degradation_policy.level_for(
            self._batcher.depth, self._batcher.capacity
        )

    async def _process_batch(self, batch: List[_Pending]) -> None:
        assert self._batcher is not None
        bus = self.observability.bus
        started = perf_counter()
        level = self._current_level()
        if level != self._level:
            if bus.enabled:
                bus.emit(
                    "service.degrade",
                    self._outcome_clock,
                    old_level=self._level.label,
                    new_level=level.label,
                    queue_depth=self._batcher.depth,
                )
            self._level = level
        self._m_level.set(int(level))
        self._m_queue.set(self._batcher.depth)
        self._m_batches.inc()
        self._m_batch_size.observe(len(batch))
        if level != DegradationLevel.EXACT:
            self._m_degraded.inc()

        # Build per-request solve entries (None = local-only fast path).
        plans: List[Optional[Tuple[str, object, Dict[str, object]]]] = []
        alloweds: List[Dict[str, float]] = []
        for pending in batch:
            allowed: Dict[str, float] = {}
            if level != DegradationLevel.LOCAL_ONLY:
                allowed = {
                    server_id: scale
                    for server_id, scale in sorted(
                        pending.request.server_estimates.items()
                    )
                    if self.health.breaker(server_id).allows_offloading
                }
            alloweds.append(allowed)
            if not allowed:
                plans.append(None)
                continue
            if level == DegradationLevel.EXACT:
                solver_name = "dp"
                kwargs: Dict[str, object] = {
                    "resolution": self.resolution
                }
            else:
                solver_name = "heu_oe"
                kwargs = {}
            # allowed scales are the request's own, so the server ids
            # name the instance of a memoized content
            memo, allowed_key = pending.memo, tuple(allowed)
            if memo is not None and memo.allowed == allowed_key:
                instance = memo.instance
            else:
                instance = build_request_instance(pending.request, allowed)
                if memo is not None:
                    memo.allowed, memo.instance = allowed_key, instance
            plans.append((solver_name, instance, kwargs))

        # exact hits cost a lookup each, less than the hop: only the
        # entries from the first miss on cross to the worker thread
        entries = [plan for plan in plans if plan is not None]
        selections = self.shard_solver.answer_hits(entries)
        self._m_loop_answers.inc(len(selections))
        if len(selections) < len(entries):
            self._m_hopped.inc()
            selections += await asyncio.to_thread(
                self.shard_solver.solve_batch, entries[len(selections):]
            )

        cursor = 0
        for pending, plan, allowed in zip(batch, plans, alloweds):
            if plan is None:
                response = self._decide_local_only(
                    pending, level, len(batch)
                )
            else:
                selection = selections[cursor]
                cursor += 1
                response = self._decide_from_selection(
                    pending, plan, selection, allowed, level, len(batch)
                )
            self._resolve(pending, response)

        if bus.enabled:
            bus.emit(
                "service.batch",
                self._outcome_clock,
                size=len(batch),
                level=level.label,
                queue_depth=self._batcher.depth,
                wall_seconds=perf_counter() - started,
            )

    # ------------------------------------------------------------------
    # decision assembly
    # ------------------------------------------------------------------
    def _decide_local_only(
        self, pending: _Pending, level: DegradationLevel, batch_size: int
    ) -> AdmissionResponse:
        """Admit at the all-local configuration iff Theorem 3 closes.

        Soundness: the all-local selection is one particular selection
        of the exact instance, so admission here implies the exact path
        would have found *some* feasible selection too.
        """
        tasks = pending.request.tasks
        check = theorem3_test(tasks, ())
        if not check.feasible:
            return self._response(
                pending,
                status="rejected",
                degradation=DegradationLevel.LOCAL_ONLY.label,
                batch_size=batch_size,
                solver="none",
            )
        placements = {
            task.task_id: (None, 0.0) for task in tasks
        }
        benefit = sum(
            task.benefit.local_benefit * task.weight
            for task in tasks
            if isinstance(task, OffloadableTask)
        )
        return self._response(
            pending,
            status="admitted",
            placements=placements,
            expected_benefit=benefit,
            total_demand_rate=check.total_demand_rate,
            degradation=DegradationLevel.LOCAL_ONLY.label,
            batch_size=batch_size,
            solver="none",
        )

    def _decide_from_selection(
        self,
        pending: _Pending,
        plan: Tuple[str, object, Dict[str, object]],
        selection,
        allowed: Mapping[str, float],
        level: DegradationLevel,
        batch_size: int,
    ) -> AdmissionResponse:
        solver_name, instance, _kwargs = plan
        if selection is None:
            return self._response(
                pending,
                status="rejected",
                degradation=level.label,
                batch_size=batch_size,
                solver=solver_name,
                allowed_servers=allowed,
            )
        placements = read_placements(instance, selection)
        check = theorem3_test(
            pending.request.tasks, offload_assignments(placements)
        )
        if not check.feasible:
            # Cannot happen while MCKP weights and Theorem 3 agree; if
            # they ever diverge the safe answer is rejection, never an
            # unverified admission.
            self.observability.metrics.counter(
                "service.verify_failures"
            ).inc()
            return self._response(
                pending,
                status="rejected",
                degradation=level.label,
                batch_size=batch_size,
                solver=solver_name,
                allowed_servers=allowed,
            )
        return self._response(
            pending,
            status="admitted",
            placements=placements,
            expected_benefit=selection.total_value,
            total_demand_rate=check.total_demand_rate,
            degradation=level.label,
            batch_size=batch_size,
            solver=solver_name,
            allowed_servers=allowed,
        )

    def _response(
        self,
        pending: _Pending,
        status: str,
        placements: Optional[
            Mapping[str, Tuple[Optional[str], float]]
        ] = None,
        expected_benefit: float = 0.0,
        total_demand_rate: float = 0.0,
        degradation: str = DegradationLevel.EXACT.label,
        batch_size: int = 0,
        solver: str = "dp",
        allowed_servers: Optional[Mapping[str, float]] = None,
    ) -> AdmissionResponse:
        return AdmissionResponse(
            request_id=pending.request.request_id,
            status=status,
            placements=dict(placements or {}),
            expected_benefit=expected_benefit,
            total_demand_rate=total_demand_rate,
            degradation=degradation,
            solver=solver,
            allowed_servers=dict(allowed_servers or {}),
            latency=perf_counter() - pending.enqueued,
            batch_size=batch_size,
            replica=self.replica_id,
        )

    def _resolve(
        self, pending: _Pending, response: AdmissionResponse
    ) -> None:
        if response.status == "admitted":
            self._m_admitted.inc()
        elif response.status == "rejected":
            self._m_rejected.inc()
        else:
            self._m_shed.inc()
        if response.status != "shed":
            self._m_latency.observe(response.latency)
        bus = self.observability.bus
        if bus.enabled:
            bus.emit(
                "service.response",
                self._outcome_clock,
                request=response.request_id,
                status=response.status,
                level=response.degradation,
                solver=response.solver,
                latency=response.latency,
            )
        if not pending.future.done():
            pending.future.set_result(response)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """A JSON-able snapshot of the service's vital signs."""
        reg = self.observability.metrics
        latency = self._m_latency
        return {
            "replica_id": self.replica_id,
            "dedup_hits": reg.value("service.dedup_hits"),
            "requests": reg.value("service.requests"),
            "admitted": reg.value("service.admitted"),
            "rejected": reg.value("service.rejected"),
            "shed": reg.value("service.shed"),
            "batches": reg.value("service.batches"),
            "degraded_batches": reg.value("service.degraded_batches"),
            "loop_answers": reg.value("service.loop_answers"),
            "hopped_batches": reg.value("service.hopped_batches"),
            "queue_depth": (
                self._batcher.depth if self._batcher is not None else 0
            ),
            "degradation_level": self._level.label,
            "batch_size_mean": (
                self._m_batch_size.total / self._m_batch_size.count
                if self._m_batch_size.count
                else 0.0
            ),
            "solve_latency_p50": (
                latency.percentile(50) if latency.count else 0.0
            ),
            "solve_latency_p99": (
                latency.percentile(99) if latency.count else 0.0
            ),
            "breakers": {
                server_id: breaker.state
                for server_id, breaker in sorted(self.health.breakers.items())
            },
            "breaker_remote_trips": {
                server_id: breaker.remote_trips
                for server_id, breaker in sorted(self.health.breakers.items())
            },
            "cache": self.cache.stats,
            "request_memo": self.request_memo.stats,
            "delta": {
                "solves": self.shard_solver.delta_solves,
                "layers_reused": self.shard_solver.delta_layers_reused,
            },
        }


# ----------------------------------------------------------------------
# TCP front-end
# ----------------------------------------------------------------------
class TcpServerControl:
    """External handle over one running :func:`serve_tcp`.

    Built for the fleet chaos harness (:mod:`repro.faults.process`):
    once :attr:`ready` is set, :attr:`bound_port` holds the actual
    listening port (useful with ``port=0``) and :meth:`abort` hard-kills
    the server — every open connection is RST instead of drained,
    approximating a replica process dying under ``SIGKILL`` from the
    clients' point of view.
    """

    def __init__(self) -> None:
        self.ready = asyncio.Event()
        self.bound_port: Optional[int] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._done: Optional[asyncio.Event] = None

    def abort(self) -> None:
        """RST every live connection and make the serve loop exit."""
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._done is not None:
            self._done.set()


async def serve_tcp(
    service: ODMService,
    host: str = "127.0.0.1",
    port: int = 7741,
    duration: Optional[float] = None,
    ready_message: bool = True,
    max_frame: int = 1 << 20,
    control: Optional[TcpServerControl] = None,
) -> None:
    """Serve ``service`` over TCP until shutdown.

    Every message, each way, is one length-prefixed binary frame
    (struct header + compact-JSON payload, see
    :mod:`repro.service.protocol`).  Records are ``{"op": ...}``; ops:
    ``admit`` (an :class:`AdmissionRequest` under ``"request"``),
    ``admit_batch`` (a list under ``"requests"``, answered by one
    vectorized ``batch_response``), ``outcome``
    (``server``/``ok``/``time``), ``window`` (close one health window),
    ``gossip`` (absorb an optional peer ``beacon``, reply with ours plus
    a ``cache_digest`` advertisement),
    ``cache_sync`` (bulk warm-replication pull: serialized hot cache
    entries + delta states the requester's ``have`` fingerprints lack,
    budget- and size-capped — see :mod:`repro.fleet.cachetier`),
    ``stats``, ``shutdown``.  Responses echo an ``op`` so pipelined
    clients can demultiplex.  ``duration`` is a safety cap: the server
    exits cleanly after that many seconds even without a shutdown op
    (CI never hangs on a crashed client).

    Input hardening: malformed payloads, non-object records, unknown
    ops and invalid op arguments each produce a structured
    ``{"op": "error"}`` reply and a ``service.wire_error`` trace event
    — never a killed connection task.  An oversized frame (>
    ``max_frame`` payload bytes) is skipped *exactly* (its length is
    declared), keeping the connection usable.  Only an unparseable
    header — bad magic or version, which includes any bytes that are
    not a frame at all — gets one error frame and closes the
    connection: garbage cannot be resynced.
    """
    done = asyncio.Event()
    if control is not None:
        control._done = done
    m_frames = service.observability.metrics.counter("service.wire_frames")
    parse = service.request_memo.parse

    async def handle(reader, writer) -> None:
        lock = asyncio.Lock()
        if control is not None:
            control._writers.add(writer)

        async def reply(payload: Dict[str, object]) -> None:
            data = encode_frame(payload)
            async with lock:
                writer.write(data)
                await writer.drain()

        async def wire_error(message: str) -> None:
            bus = service.observability.bus
            if bus.enabled:
                bus.emit(
                    "service.wire_error",
                    service._outcome_clock,
                    error=message[:200],
                )
            await reply({"op": "error", "error": message})

        async def admit(record: Dict[str, object]) -> None:
            try:
                request, memo = parse(record["request"])
            except (KeyError, TypeError, ValueError) as exc:
                await wire_error(f"bad admit request: {exc}")
                return
            response = await service.submit(request, memo=memo)
            await reply({"op": "response", **response.to_dict()})

        async def admit_batch(record: Dict[str, object]) -> None:
            raw = record.get("requests")
            if not isinstance(raw, (list, tuple)) or not raw:
                await wire_error(
                    "admit_batch needs a non-empty 'requests' list"
                )
                return
            try:
                parsed = [parse(item) for item in raw]
            except (KeyError, TypeError, ValueError) as exc:
                await wire_error(f"bad admit_batch request: {exc}")
                return
            responses = await asyncio.gather(
                *(
                    service.submit(request, memo=memo)
                    for request, memo in parsed
                )
            )
            await reply(
                {
                    "op": "batch_response",
                    "responses": [r.to_dict() for r in responses],
                }
            )

        async def skip_exactly(length: int) -> bool:
            """Discard ``length`` declared payload bytes; False on EOF."""
            remaining = length
            while remaining > 0:
                chunk = await reader.read(min(remaining, 1 << 16))
                if not chunk:
                    return False
                remaining -= len(chunk)
            return True

        # in-flight admissions only: a finished task drops out, so a
        # long-lived connection retains nothing per answered request
        tasks: Set[asyncio.Task] = set()

        def spawn(coro) -> None:
            task = asyncio.create_task(coro)
            tasks.add(task)
            task.add_done_callback(tasks.discard)

        try:
            while not done.is_set():
                try:
                    header = await reader.readexactly(HEADER.size)
                except asyncio.IncompleteReadError:
                    break  # EOF between frames or inside a header
                try:
                    _, flags, length = decode_header(header)
                except FrameError as exc:
                    # bad magic/version: framing is lost for good
                    await wire_error(str(exc))
                    break
                if length > max_frame:
                    if not await skip_exactly(length):
                        break
                    await wire_error(
                        f"frame exceeds maximum length "
                        f"({max_frame} bytes)"
                    )
                    continue
                try:
                    payload = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    break  # truncated payload at EOF
                try:
                    record = decode_payload(flags, payload)
                except FrameError as exc:
                    await wire_error(str(exc))
                    continue
                m_frames.inc()
                op = record.get("op")
                if op == "admit":
                    spawn(admit(record))
                elif op == "admit_batch":
                    spawn(admit_batch(record))
                elif op == "outcome":
                    try:
                        service.record_outcome(
                            str(record["server"]),
                            bool(record["ok"]),
                            record.get("time"),
                        )
                    except (KeyError, TypeError, ValueError) as exc:
                        await wire_error(f"bad outcome: {exc}")
                        continue
                    await reply({"op": "ack"})
                elif op == "window":
                    await reply(
                        {
                            "op": "window",
                            "breakers": service.close_health_window(),
                        }
                    )
                elif op == "gossip":
                    beacon = record.get("beacon")
                    if beacon is not None:
                        try:
                            service.absorb_beacon(beacon)
                        except (
                            AttributeError,
                            TypeError,
                            ValueError,
                        ) as exc:
                            await wire_error(f"bad beacon: {exc}")
                            continue
                    await reply(
                        {
                            "op": "gossip",
                            "beacon": service.beacon(),
                            "cache_digest": service.cache_digest(),
                        }
                    )
                elif op == "cache_sync":
                    try:
                        sync = service.cache_sync_reply(
                            have=record.get("have"),
                            budget=record.get("budget"),
                            states=record.get("states"),
                            max_bytes=record.get("max_bytes"),
                        )
                    except (TypeError, ValueError) as exc:
                        await wire_error(f"bad cache_sync: {exc}")
                        continue
                    await reply({"op": "cache_sync", **sync})
                elif op == "stats":
                    await reply({"op": "stats", **service.stats()})
                elif op == "shutdown":
                    await reply({"op": "bye"})
                    done.set()
                else:
                    await wire_error(f"unknown op {op!r}")
        except (ConnectionError, OSError):
            pass  # peer vanished mid-read/write; nothing to answer
        finally:
            if control is not None:
                control._writers.discard(writer)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    await service.start()
    server = await asyncio.start_server(
        handle, host=host, port=port, limit=max_frame
    )
    sockets = server.sockets or ()
    bound_port = sockets[0].getsockname()[1] if sockets else port
    if control is not None:
        control.bound_port = bound_port
        control.ready.set()
    if ready_message:
        print(f"serving on {host}:{bound_port}", flush=True)
    try:
        if duration is not None:
            try:
                await asyncio.wait_for(done.wait(), timeout=duration)
            except asyncio.TimeoutError:
                pass
        else:
            await done.wait()
    finally:
        server.close()
        await server.wait_closed()
        await service.stop()


# ----------------------------------------------------------------------
# pipelined client
# ----------------------------------------------------------------------
class ServiceClient:
    """Async client for :func:`serve_tcp` — its one client: loadgen,
    the fleet router, gossip agents and cache pulls all use it.

    Pipelines ``admit`` ops (responses are demultiplexed by
    ``request_id``), batches whole bursts via :meth:`submit_batch`,
    and exposes the health surface as plain calls, so
    :func:`repro.service.loadgen.run_loadgen` can drive a remote
    service exactly like an in-process one.

    Failure semantics (the fleet router depends on both):

    * a dropped connection fails **every** in-flight future immediately
      with :class:`ConnectionLost` — no stranded awaits;
    * every call accepts ``timeout=`` seconds (falling back to
      ``default_timeout``) and raises :class:`asyncio.TimeoutError`
      when the peer straggles past it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7741,
        default_timeout: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.default_timeout = default_timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()
        self._pending: Dict[str, "asyncio.Future[Dict[str, object]]"] = {}
        self._plain: List["asyncio.Future[Dict[str, object]]"] = []
        self._reader_task: Optional[asyncio.Task] = None
        self._lost: Optional[ConnectionLost] = None
        self._admit_frames = AdmitEncoder()

    @property
    def connected(self) -> bool:
        return self._writer is not None and self._lost is None

    async def connect(self) -> "ServiceClient":
        self._lost = None
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._reader_task = asyncio.create_task(self._dispatch())
        return self

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None

    #: strong refs to reader tasks cancelled via abort(): the loop only
    #: holds tasks weakly, so without this a cancelled-but-unprocessed
    #: task can be garbage-collected while still pending
    _aborted_tasks: "Set[asyncio.Task]" = set()

    def abort(self) -> None:
        """Synchronous teardown: cancel the dispatch loop, drop the
        socket.  For callers (the fleet router) that must discard a
        broken client from non-async cleanup paths without leaving a
        pending reader task behind."""
        if self._reader_task is not None:
            task, self._reader_task = self._reader_task, None
            task.cancel()
            ServiceClient._aborted_tasks.add(task)
            task.add_done_callback(ServiceClient._aborted_tasks.discard)
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    async def __aenter__(self) -> "ServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # receive loop
    # ------------------------------------------------------------------
    async def _read_record(self) -> Optional[Dict[str, object]]:
        """One reply frame's record; ``None`` at EOF.

        A garbled frame raises
        :class:`~repro.service.protocol.FrameError` (framing is lost).
        """
        assert self._reader is not None
        try:
            header = await self._reader.readexactly(HEADER.size)
        except asyncio.IncompleteReadError:
            return None
        _, flags, length = decode_header(header)
        payload = await self._reader.readexactly(length)
        return decode_payload(flags, payload)

    async def _dispatch(self) -> None:
        cause: Optional[BaseException] = None
        try:
            while True:
                record = await self._read_record()
                if record is None:
                    break
                if record.get("op") == "response":
                    future = self._pending.pop(
                        str(record["request_id"]), None
                    )
                else:
                    future = self._plain.pop(0) if self._plain else None
                if future is not None and not future.done():
                    future.set_result(record)
        except asyncio.CancelledError:
            self._fail_in_flight(None)
            raise
        except Exception as exc:  # noqa: BLE001 — any stream death
            cause = exc
        self._fail_in_flight(cause)

    def _fail_in_flight(self, cause: Optional[BaseException]) -> None:
        """Fail every pipelined future fast instead of stranding it."""
        error = ConnectionLost(
            f"connection to {self.host}:{self.port} lost with "
            f"{len(self._pending) + len(self._plain)} request(s) in flight"
        )
        if cause is not None:
            error.__cause__ = cause
        self._lost = error
        for future in list(self._pending.values()) + self._plain:
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
        self._plain.clear()

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    async def _send(self, data: bytes) -> None:
        """Write one encoded frame."""
        if self._lost is not None:
            raise self._lost
        if self._writer is None:
            raise ConnectionLost("client is not connected")
        try:
            async with self._lock:
                self._writer.write(data)
                await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            if isinstance(exc, ConnectionLost):
                raise
            error = ConnectionLost(
                f"write to {self.host}:{self.port} failed: {exc}"
            )
            error.__cause__ = exc
            self._lost = error
            raise error from exc

    async def _await(
        self,
        future: "asyncio.Future[Dict[str, object]]",
        timeout: Optional[float],
    ) -> Dict[str, object]:
        limit = timeout if timeout is not None else self.default_timeout
        if limit is None:
            return await future
        # wait_for cancels the future on timeout; a timed-out *plain*
        # future stays queued so its eventual reply is still consumed
        # in order and the pipeline never desynchronizes.
        return await asyncio.wait_for(future, timeout=limit)

    async def _call(
        self,
        data: bytes,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """Send one encoded frame and await its in-order reply."""
        future = asyncio.get_running_loop().create_future()
        self._plain.append(future)
        try:
            await self._send(data)
        except ConnectionLost:
            if future in self._plain:
                self._plain.remove(future)
            raise
        return await self._await(future, timeout)

    # ------------------------------------------------------------------
    # protocol ops
    # ------------------------------------------------------------------
    async def submit(
        self,
        request: AdmissionRequest,
        timeout: Optional[float] = None,
    ) -> AdmissionResponse:
        future = asyncio.get_running_loop().create_future()
        self._pending[request.request_id] = future
        try:
            await self._send(self._admit_frames.admit(request))
            record = await self._await(future, timeout)
        finally:
            if self._pending.get(request.request_id) is future:
                if future.done():
                    self._pending.pop(request.request_id, None)
        return AdmissionResponse.from_dict(record)

    async def submit_batch(
        self,
        requests: Sequence[AdmissionRequest],
        timeout: Optional[float] = None,
    ) -> List[AdmissionResponse]:
        """Admit a whole burst in one round trip (``admit_batch`` op).

        The server answers with a single vectorized ``batch_response``
        carrying one response per request *in request order* — one
        write, one read, one reply frame, however large the burst.
        """
        if not requests:
            return []
        record = await self._call(
            self._admit_frames.admit_batch(requests), timeout=timeout
        )
        if record.get("op") != "batch_response":
            raise ConnectionLost(
                f"expected batch_response, got {record.get('op')!r}: "
                f"{record.get('error', '')}"
            )
        responses = [
            AdmissionResponse.from_dict(item)
            for item in record.get("responses") or []
        ]
        if len(responses) != len(requests):
            raise ConnectionLost(
                f"batch_response carried {len(responses)} responses "
                f"for {len(requests)} requests"
            )
        return responses

    async def record_outcome(
        self,
        server: str,
        ok: bool,
        time: float,
        timeout: Optional[float] = None,
    ) -> None:
        await self._call(
            encode_frame(
                {"op": "outcome", "server": server, "ok": ok, "time": time}
            ),
            timeout=timeout,
        )

    async def close_window(
        self, timeout: Optional[float] = None
    ) -> Dict[str, str]:
        record = await self._call(
            encode_frame({"op": "window"}), timeout=timeout
        )
        return dict(record.get("breakers") or {})

    async def gossip(
        self,
        beacon: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """Exchange beacons: push ``beacon`` (if any), pull the peer's.

        Returns the whole reply: the peer's ``beacon`` plus its
        ``cache_digest`` advertisement.
        """
        payload: Dict[str, object] = {"op": "gossip"}
        if beacon is not None:
            payload["beacon"] = beacon
        record = await self._call(encode_frame(payload), timeout=timeout)
        if not isinstance(record.get("beacon"), Mapping):
            raise ValueError(
                f"gossip reply carries no beacon: {record.get('error', '')}"
            )
        return {k: v for k, v in record.items() if k != "op"}

    async def cache_sync(
        self,
        have: Sequence[str] = (),
        budget: Optional[int] = None,
        states: Optional[int] = None,
        max_bytes: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """Pull serialized hot cache entries the peer has and we lack.

        The bulk-transfer half of the fleet cache tier
        (:mod:`repro.fleet.cachetier`): ``have`` lists our key
        fingerprints, the peer answers with up to ``budget`` hot
        entries and ``states`` delta states it can spare, each capped
        at ``max_bytes`` serialized (all clamped to the peer's own
        budgets).
        """
        payload: Dict[str, object] = {
            "op": "cache_sync",
            "have": list(have),
        }
        if budget is not None:
            payload["budget"] = int(budget)
        if states is not None:
            payload["states"] = int(states)
        if max_bytes is not None:
            payload["max_bytes"] = int(max_bytes)
        record = await self._call(encode_frame(payload), timeout=timeout)
        if record.get("op") != "cache_sync":
            raise ConnectionLost(
                f"expected cache_sync reply, got {record.get('op')!r}: "
                f"{record.get('error', '')}"
            )
        return {k: v for k, v in record.items() if k != "op"}

    async def stats(
        self, timeout: Optional[float] = None
    ) -> Dict[str, object]:
        record = await self._call(
            encode_frame({"op": "stats"}), timeout=timeout
        )
        return {k: v for k, v in record.items() if k != "op"}

    async def shutdown(self, timeout: Optional[float] = None) -> None:
        await self._call(encode_frame({"op": "shutdown"}), timeout=timeout)
