"""The fleet router: timeouts, retry, failover, hedging, health probes.

:class:`FleetRouter` fronts N :class:`~repro.service.server.ODMService`
replicas with one ``submit`` call that survives replica death:

* every attempt carries a **deadline** (``request_timeout``) — a hung
  replica costs one timeout, never a stuck campaign;
* failures retry on a **different** replica (failover) under bounded
  exponential backoff with seeded jitter — no thundering herd, fully
  reproducible;
* an optional **hedge**: when the first attempt straggles past
  ``hedge_after`` seconds, a second replica gets the same request and
  the first completed answer wins.  Retries and hedges reuse the same
  ``request_id``, and the replica-side idempotent dedup guarantees one
  id is *decided* at most once per replica — the router additionally
  verifies it never returns two different decisions for one id;
* a background **probe loop** pulls gossip beacons from every replica:
  load-aware routing (least-loaded policy), early avoidance of
  drowning replicas (pressure limit), and down→up recovery detection
  with measured recovery times.

Routing policies: ``least_loaded`` (occupancy + in-flight pressure,
deterministic tie-break) and ``consistent_hash`` (stable id→replica
placement via :class:`~repro.fleet.membership.HashRing`, maximizing
replica-local dedup hits for retried ids).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set

from ..observability import Observability
from ..faults.process import LinkChaos
from ..service.aio import cancel_and_wait
from ..service.request import AdmissionRequest, AdmissionResponse
from ..service.server import ServiceClient
from ..sim.rng import RandomStreams
from .gossip import GossipState, HealthBeacon
from .membership import FleetMembership, HashRing, ReplicaSpec

__all__ = [
    "ROUTING_POLICIES",
    "FleetRouter",
    "FleetUnavailable",
    "RouterConfig",
]

ROUTING_POLICIES = ("least_loaded", "consistent_hash")

#: Failure types that justify trying another replica.
_FAILOVER_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError)


class FleetUnavailable(RuntimeError):
    """Every routable replica failed within the attempt budget."""


@dataclass(frozen=True)
class RouterConfig:
    """Tunables for :class:`FleetRouter`.

    ``hedge_after=None`` disables hedging; ``probe_interval=None``
    disables the background probe loop (probes can still be run
    manually via :meth:`FleetRouter.probe`).
    """

    policy: str = "least_loaded"
    request_timeout: float = 5.0
    max_attempts: int = 3
    backoff_base: float = 0.02
    backoff_max: float = 0.25
    jitter: float = 0.5
    hedge_after: Optional[float] = None
    probe_interval: Optional[float] = 0.05
    probe_timeout: float = 1.0
    pressure_limit: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        if self.policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.policy!r}; "
                f"known: {ROUTING_POLICIES}"
            )
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < self.backoff_base:
            raise ValueError(
                "need 0 <= backoff_base <= backoff_max, got "
                f"{self.backoff_base}/{self.backoff_max}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.hedge_after is not None and self.hedge_after <= 0:
            raise ValueError("hedge_after must be positive (or None)")
        if self.probe_interval is not None and self.probe_interval <= 0:
            raise ValueError("probe_interval must be positive (or None)")
        if self.probe_timeout <= 0:
            raise ValueError("probe_timeout must be positive")
        if not 0.0 < self.pressure_limit <= 1.0:
            raise ValueError("pressure_limit must be in (0, 1]")


class FleetRouter:
    """Failure-tolerant front door over a static replica fleet."""

    def __init__(
        self,
        specs: Sequence[ReplicaSpec],
        config: Optional[RouterConfig] = None,
        observability: Optional[Observability] = None,
        link_chaos: Optional[LinkChaos] = None,
    ) -> None:
        self.config = config or RouterConfig()
        self.membership = FleetMembership(specs)
        self.ring = HashRing(self.membership.ids())
        self.gossip = GossipState()
        self.link_chaos = link_chaos
        self.observability = (
            observability
            if observability is not None
            else Observability.disabled()
        )
        self._rng = RandomStreams(seed=self.config.seed).get("fleet-router")
        self._clients: Dict[str, ServiceClient] = {}
        self._conn_locks: Dict[str, asyncio.Lock] = {
            rid: asyncio.Lock() for rid in self.membership.ids()
        }
        self._inflight: Dict[str, int] = {
            rid: 0 for rid in self.membership.ids()
        }
        #: request_id -> digest of the first delivered decision; a second
        #: *different* decision for the same id is a duplicate admission
        self._delivered: Dict[str, str] = {}
        self.duplicate_deliveries = 0
        self._probe_task: Optional[asyncio.Task] = None

        reg = self.observability.metrics
        self._m_requests = reg.counter("fleet.requests")
        self._m_retries = reg.counter("fleet.retries")
        self._m_failovers = reg.counter("fleet.failovers")
        self._m_hedges = reg.counter("fleet.hedges")
        self._m_hedge_wins = reg.counter("fleet.hedge_wins")
        self._m_unrouted = reg.counter("fleet.unrouted")
        self._m_latency = reg.histogram("fleet.latency")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "FleetRouter":
        if (
            self.config.probe_interval is not None
            and self._probe_task is None
        ):
            self._probe_task = asyncio.create_task(
                self._probe_loop(), name="fleet-router-probe"
            )
        return self

    async def stop(self) -> None:
        if self._probe_task is not None:
            task, self._probe_task = self._probe_task, None
            await cancel_and_wait(task)
        for client in list(self._clients.values()):
            await client.close()
        self._clients.clear()

    async def __aenter__(self) -> "FleetRouter":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _client(self, replica_id: str) -> ServiceClient:
        # per-replica lock: submit and the probe loop may both want a
        # fresh connection at once — without it the second connect
        # overwrites the first in _clients and leaks its reader task
        async with self._conn_locks[replica_id]:
            client = self._clients.get(replica_id)
            if client is not None and client.connected:
                return client
            if client is not None:
                self._clients.pop(replica_id, None)
                await client.close()
            spec = self.membership.status(replica_id).spec
            client = ServiceClient(
                spec.host,
                spec.port,
                default_timeout=self.config.request_timeout,
            )
            await client.connect()
            self._clients[replica_id] = client
            return client

    # ------------------------------------------------------------------
    # replica selection
    # ------------------------------------------------------------------
    def _candidates(self, exclude: Set[str]) -> List[str]:
        healthy = [
            rid for rid in self.membership.healthy() if rid not in exclude
        ]
        limit = self.config.pressure_limit
        relaxed = [
            rid
            for rid in healthy
            if self.membership.status(rid).occupancy < limit
        ]
        # a fully saturated fleet still routes (the replica sheds, the
        # client learns about the overload honestly) — pressure only
        # steers while a less-loaded alternative exists
        return relaxed or healthy

    def _pressure(self, replica_id: str) -> float:
        status = self.membership.status(replica_id)
        capacity = float(
            status.beacon.get("queue_capacity", 0) or 0
        ) or 32.0
        return status.occupancy + self._inflight[replica_id] / capacity

    def pick(
        self, request_id: str, exclude: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Choose a replica for ``request_id`` (``None`` = nobody left)."""
        candidates = self._candidates(exclude or set())
        if not candidates:
            return None
        if self.config.policy == "consistent_hash":
            return self.ring.route(request_id, alive=candidates)
        return min(
            candidates, key=lambda rid: (self._pressure(rid), rid)
        )

    # ------------------------------------------------------------------
    # submit path
    # ------------------------------------------------------------------
    async def submit(
        self,
        request: AdmissionRequest,
        timeout: Optional[float] = None,
    ) -> AdmissionResponse:
        """Route one admission request with retry, failover and hedging.

        Raises :class:`FleetUnavailable` only when every attempt against
        every routable replica failed.
        """
        self._m_requests.inc()
        started = perf_counter()
        tried: Set[str] = set()
        last_error: Optional[BaseException] = None
        for attempt in range(self.config.max_attempts):
            replica_id = self.pick(request.request_id, exclude=tried)
            if replica_id is None and tried:
                # everyone healthy was tried once; allow a second lap
                tried.clear()
                replica_id = self.pick(request.request_id)
            if replica_id is None:
                break
            if attempt > 0:
                self._m_retries.inc()
                self._m_failovers.inc()
                self._emit(
                    "fleet.failover",
                    request=request.request_id,
                    attempt=attempt,
                    to=replica_id,
                    error=type(last_error).__name__
                    if last_error
                    else "",
                )
            # account in-flight pressure *before* the first await so
            # concurrent picks within one burst spread across replicas
            self._inflight[replica_id] += 1
            try:
                response = await self._attempt(
                    replica_id, request, timeout
                )
            except _FAILOVER_ERRORS as exc:
                last_error = exc
                tried.add(replica_id)
                if attempt + 1 < self.config.max_attempts:
                    await self._backoff(attempt)
                continue
            finally:
                self._inflight[replica_id] -= 1
            self._m_latency.observe(perf_counter() - started)
            self._check_duplicate(request.request_id, response)
            return response
        self._m_unrouted.inc()
        self._emit(
            "fleet.unrouted",
            request=request.request_id,
            attempts=self.config.max_attempts,
            error=type(last_error).__name__ if last_error else "",
        )
        raise FleetUnavailable(
            f"request {request.request_id!r} failed on every replica "
            f"({self.config.max_attempts} attempts)"
        ) from last_error

    async def _attempt(
        self,
        replica_id: str,
        request: AdmissionRequest,
        timeout: Optional[float],
    ) -> AdmissionResponse:
        primary = asyncio.create_task(
            self._send_one(replica_id, request, timeout)
        )
        hedge_after = self.config.hedge_after
        if hedge_after is None:
            return await primary
        done, _pending = await asyncio.wait(
            {primary}, timeout=hedge_after
        )
        if done:
            return primary.result()  # may raise -> failover path
        hedge_id = self.pick(request.request_id, exclude={replica_id})
        if hedge_id is None:
            return await primary
        self._m_hedges.inc()
        self._emit(
            "fleet.hedge",
            request=request.request_id,
            primary=replica_id,
            hedge=hedge_id,
        )
        self._inflight[hedge_id] += 1
        hedge = asyncio.create_task(
            self._send_one(hedge_id, request, timeout)
        )
        hedge.add_done_callback(
            lambda _task: self._inflight.__setitem__(
                hedge_id, self._inflight[hedge_id] - 1
            )
        )
        racing: Set[asyncio.Task] = {primary, hedge}
        errors: List[BaseException] = []
        try:
            while racing:
                done, racing = await asyncio.wait(
                    racing, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    if task.exception() is None:
                        if task is hedge:
                            self._m_hedge_wins.inc()
                        return task.result()
                    errors.append(task.exception())
            raise errors[0]
        finally:
            for task in racing:
                task.cancel()
            if racing:
                await asyncio.gather(*racing, return_exceptions=True)

    async def _send_one(
        self,
        replica_id: str,
        request: AdmissionRequest,
        timeout: Optional[float],
    ) -> AdmissionResponse:
        if self.link_chaos is not None:
            try:
                await self.link_chaos.impose(replica_id)
            except ConnectionError:
                self._on_failure(replica_id, fatal=False)
                raise
        try:
            client = await self._client(replica_id)
            response = await client.submit(
                request,
                timeout=timeout or self.config.request_timeout,
            )
        except asyncio.TimeoutError:
            self._on_failure(replica_id, fatal=False)
            raise
        except (ConnectionError, OSError):
            self._on_failure(replica_id, fatal=True)
            raise
        self._mark_success(replica_id)
        return response

    async def _backoff(self, attempt: int) -> None:
        base = min(
            self.config.backoff_base * (2.0 ** attempt),
            self.config.backoff_max,
        )
        if base <= 0:
            return
        # seeded jitter: full determinism, no synchronized retry storms
        spread = self.config.jitter * base
        delay = base - spread * float(self._rng.random())
        await asyncio.sleep(delay)

    # ------------------------------------------------------------------
    # health bookkeeping
    # ------------------------------------------------------------------
    def _on_failure(self, replica_id: str, fatal: bool) -> None:
        before = self.membership.status(replica_id).state
        after = self.membership.mark_failure(
            replica_id, perf_counter(), fatal=fatal
        )
        if fatal:
            # the socket is broken; tear it down now (synchronously —
            # no orphaned close task) and reconnect lazily on next use
            client = self._clients.pop(replica_id, None)
            if client is not None:
                client.abort()
        if after == "down" and before != "down":
            self._emit("fleet.replica_down", replica=replica_id)

    def _mark_success(self, replica_id: str) -> None:
        recovered = self.membership.mark_success(
            replica_id, perf_counter()
        )
        if recovered is not None:
            self._emit(
                "fleet.replica_up",
                replica=replica_id,
                outage_seconds=recovered,
            )

    def _check_duplicate(
        self, request_id: str, response: AdmissionResponse
    ) -> None:
        digest = (
            f"{response.status}|{response.degradation}|"
            f"{sorted(response.placements.items())!r}"
        )
        held = self._delivered.setdefault(request_id, digest)
        if held != digest:
            self.duplicate_deliveries += 1
            self._emit(
                "fleet.duplicate_delivery", request=request_id
            )

    # ------------------------------------------------------------------
    # probe loop
    # ------------------------------------------------------------------
    async def _probe_loop(self) -> None:
        assert self.config.probe_interval is not None
        while True:
            await asyncio.sleep(self.config.probe_interval)
            await self.probe()

    async def probe(self) -> int:
        """One beacon pull from every replica; returns replicas reached.

        Probes are how a *down* replica is discovered to be back: the
        data path never routes to it, so recovery evidence must come
        from here.
        """
        reached = 0
        for replica_id in self.membership.ids():
            try:
                client = await self._client(replica_id)
                reply = await client.gossip(
                    timeout=self.config.probe_timeout
                )
                beacon_record = reply["beacon"]
                self.membership.update_beacon(replica_id, beacon_record)
                self.gossip.absorb(HealthBeacon.from_dict(beacon_record))
                self._mark_success(replica_id)
                reached += 1
            except _FAILOVER_ERRORS:
                self._on_failure(replica_id, fatal=True)
            except ValueError:
                pass  # malformed beacon; keep the replica routable
        return reached

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _emit(self, kind: str, **fields: object) -> None:
        bus = self.observability.bus
        if bus.enabled:
            bus.emit(kind, perf_counter(), **fields)

    def stats(self) -> Dict[str, object]:
        reg = self.observability.metrics
        return {
            "policy": self.config.policy,
            "requests": reg.value("fleet.requests"),
            "retries": reg.value("fleet.retries"),
            "failovers": reg.value("fleet.failovers"),
            "hedges": reg.value("fleet.hedges"),
            "hedge_wins": reg.value("fleet.hedge_wins"),
            "unrouted": reg.value("fleet.unrouted"),
            "duplicate_deliveries": self.duplicate_deliveries,
            "latency_p50": (
                self._m_latency.percentile(50)
                if self._m_latency.count
                else 0.0
            ),
            "latency_p99": (
                self._m_latency.percentile(99)
                if self._m_latency.count
                else 0.0
            ),
            "replicas": self.membership.snapshot(),
            "recovery_times": self.membership.recovery_times(),
            "fleet_breakers": self.gossip.merged_breakers(),
        }
