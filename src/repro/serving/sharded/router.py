"""The sharded serving router: consistent-hash dispatch over workers.

The router owns the fleet (it builds and mutates the shared-memory
arena), spawns N worker processes, keeps one pipelined TCP connection to
each, and forwards predict/resume-scan requests to the worker owning the
request's region on the :class:`~repro.serving.sharded.hashring.
HashRing`.  Identity travels, bytes do not: a forwarded by-id request is
a ~100-byte JSON line; the worker reads the login history zero-copy out
of the arena.

Backpressure is explicit at two levels.  Each worker connection has a
bounded *outstanding-request window*; when every replica candidate for a
region is saturated (window full, breaker open, or connection dead) the
router sheds with a typed :class:`~repro.serving.requests.Overloaded`
instead of queueing -- the same load-shedding posture as the in-process
admission layer, one hop earlier.  A per-worker
:class:`~repro.faults.resilience.CircuitBreaker` accumulates transport
failures; the maintenance loop health-probes workers, evicts dead ones,
and restarts them against the same arena --
consistent hashing keeps the rest of the fleet's routing untouched.

Health and metrics are aggregated: a health probe fans out and sums the
workers' gauges; a metrics scrape pulls each worker's pickled
``MetricsRegistry`` over its control pipe and merges them (plus the
router's own registry) into one OpenMetrics exposition.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ProRPError
from repro.faults.resilience import CircuitBreaker
from repro.observability.openmetrics import render_openmetrics
from repro.observability.runtime import OBS
from repro.serving.requests import (
    HealthRequest,
    HealthResponse,
    MetricsRequest,
    MetricsResponse,
    Overloaded,
    Request,
    Response,
    Shutdown,
    Unavailable,
    decode_response,
    encode_request,
)
from repro.serving.server import ServingSettings
from repro.serving.sharded.arena import DEFAULT_SLACK, SharedHistoryArena
from repro.serving.sharded.hashring import DEFAULT_VNODES, HashRing
from repro.serving.sharded.worker import (
    WorkerSpec,
    await_ready,
    spawn_worker,
)


#: Seconds a freshly spawned worker has to report its listening port.
WORKER_READY_TIMEOUT_S = 60.0


class WorkerTransportError(ProRPError):
    """The pipelined connection to a worker failed mid-request."""


@dataclass(frozen=True)
class RouterSettings:
    """Router knobs: replication, backpressure, resilience."""

    #: Distinct ring candidates tried per region before shedding.
    replicas: int = 2
    #: Outstanding-request window per worker connection; a full window
    #: moves traffic to the next replica, all-full sheds ``Overloaded``.
    window: int = 32
    vnodes: int = DEFAULT_VNODES
    #: Health-probe cadence of the maintenance loop; <= 0 disables it
    #: (scripted runs and tests that drive the router synchronously).
    health_interval_s: float = 1.0
    breaker_failure_threshold: int = 3
    breaker_recovery_s: float = 2.0

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ProRPError("replicas must be at least 1")
        if self.window < 1:
            raise ProRPError("window must be at least 1")


@dataclass
class RouterStats:
    """Always-on router-side accounting (mirrors ``ServerStats``)."""

    routed: int = 0
    shed_overloaded: int = 0
    retries: int = 0
    respawns: int = 0
    max_outstanding: int = 0
    by_worker: Dict[int, int] = field(default_factory=dict)

    def snapshot(self) -> Dict[str, object]:
        return {
            "routed": self.routed,
            "shed_overloaded": self.shed_overloaded,
            "retries": self.retries,
            "respawns": self.respawns,
            "max_outstanding": self.max_outstanding,
            "by_worker": dict(self.by_worker),
        }


class WorkerHandle:
    """One worker process and its pipelined connection, router side."""

    def __init__(self, worker_id: int, spec: WorkerSpec, breaker: CircuitBreaker):
        self.worker_id = worker_id
        self.spec = spec
        self.breaker = breaker
        self.process = None
        self.conn = None
        self.port: Optional[int] = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.read_task: Optional[asyncio.Task] = None
        self.inflight: Dict[str, asyncio.Future] = {}
        self.outbox: List[dict] = []
        self.flush_scheduled = False
        self.outstanding = 0
        self.seq = 0
        self.alive = False
        self.final_stats: Optional[Dict[str, int]] = None


class ShardRouter:
    """The multi-process gateway; speaks the same ``submit`` contract as
    :class:`~repro.serving.server.PredictionServer` so the load
    generator, CLI, and tests drive either interchangeably."""

    def __init__(
        self,
        arena: SharedHistoryArena,
        n_workers: int,
        worker_settings: Optional[ServingSettings] = None,
        settings: Optional[RouterSettings] = None,
        observability: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ):
        if n_workers < 1:
            raise ProRPError("the sharded tier needs at least one worker")
        self.arena = arena
        self.n_workers = n_workers
        self.worker_settings = (
            worker_settings if worker_settings is not None else ServingSettings()
        )
        self.settings = settings if settings is not None else RouterSettings()
        self.observability = observability
        self._clock = clock
        self.ring = HashRing(range(n_workers), vnodes=self.settings.vnodes)
        self._candidates: Dict[str, Tuple[int, ...]] = {}
        self.handles: Dict[int, WorkerHandle] = {}
        self.stats = RouterStats()
        self._metrics_lock = asyncio.Lock()
        self._maintenance_task: Optional[asyncio.Task] = None
        self._started = False
        self._stopping = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        fleet: Mapping[str, Sequence[Tuple[str, Sequence[int], bool]]],
        n_workers: int,
        worker_settings: Optional[ServingSettings] = None,
        settings: Optional[RouterSettings] = None,
        slack: int = DEFAULT_SLACK,
        observability: bool = True,
    ) -> "ShardRouter":
        """Build the arena from ``region -> [(database_id, logins,
        paused), ...]`` and a router over it."""
        arena = SharedHistoryArena.build(fleet, slack=slack)
        return cls(
            arena,
            n_workers,
            worker_settings=worker_settings,
            settings=settings,
            observability=observability,
        )

    # ------------------------------------------------------------------
    # Fleet mutation (router-owned writes into the arena)
    # ------------------------------------------------------------------

    def append_login(self, region: str, database_id: str, ts: int) -> None:
        self.arena.append_login(region, database_id, ts)

    def set_paused(self, region: str, database_id: str, paused: bool) -> None:
        self.arena.set_paused(region, database_id, paused)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn every worker, wait for bootstrap, connect, and start the
        maintenance loop.  Spawns overlap (the slow part is interpreter
        startup), then readiness is awaited in worker order."""
        if self._started:
            return
        if self._stopping:
            raise ProRPError("a stopped ShardRouter cannot restart")
        self._started = True
        loop = asyncio.get_running_loop()
        spawned = []
        for worker_id in range(self.n_workers):
            spec = WorkerSpec(
                worker_id=worker_id,
                arena=self.arena.spec,
                settings=self.worker_settings,
                observability=self.observability,
            )
            handle = WorkerHandle(
                worker_id,
                spec,
                CircuitBreaker(
                    failure_threshold=self.settings.breaker_failure_threshold,
                    recovery_s=self.settings.breaker_recovery_s,
                    name=f"router.worker.{worker_id}",
                ),
            )
            handle.process, handle.conn = spawn_worker(spec)
            self.handles[worker_id] = handle
            spawned.append(handle)
        for handle in spawned:
            await self._connect(handle, loop)
        if self.settings.health_interval_s > 0:
            self._maintenance_task = loop.create_task(self._maintenance())

    async def _connect(self, handle: WorkerHandle, loop) -> None:
        handle.port = await loop.run_in_executor(
            None,
            await_ready,
            handle.conn,
            handle.process,
            WORKER_READY_TIMEOUT_S,
        )
        handle.reader, handle.writer = await asyncio.open_connection(
            handle.spec.host, handle.port
        )
        handle.inflight = {}
        handle.outbox = []
        handle.flush_scheduled = False
        handle.outstanding = 0
        handle.alive = True
        handle.read_task = loop.create_task(self._read_loop(handle))

    async def stop(self) -> None:
        """Drain and stop every worker, then free the arena."""
        if self._stopping:
            return
        self._stopping = True
        if self._maintenance_task is not None:
            self._maintenance_task.cancel()
            try:
                await self._maintenance_task
            except asyncio.CancelledError:
                pass
            self._maintenance_task = None
        loop = asyncio.get_running_loop()
        for handle in self.handles.values():
            await self._stop_worker(handle, loop)
        self.arena.close()
        if self.arena.owner:
            try:
                self.arena.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    async def _stop_worker(self, handle: WorkerHandle, loop) -> None:
        if handle.process is None:
            return
        try:
            handle.conn.send(("stop",))
            got = await loop.run_in_executor(None, handle.conn.poll, 30.0)
            if got:
                tag, payload = handle.conn.recv()
                if tag == "stopped":
                    handle.final_stats = payload
        except (OSError, EOFError, BrokenPipeError):
            pass
        if handle.writer is not None:
            handle.writer.close()
        if handle.read_task is not None:
            try:
                await handle.read_task
            except asyncio.CancelledError:  # pragma: no cover
                pass
        await loop.run_in_executor(None, handle.process.join, 15.0)
        if handle.process.is_alive():  # pragma: no cover - hung worker
            handle.process.terminate()
            await loop.run_in_executor(None, handle.process.join, 5.0)
        handle.alive = False
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def submit(self, request: Request) -> Response:
        """Route one request; always returns a typed response (``Shutdown``
        once :meth:`stop` has begun, whether or not the router started)."""
        if self._stopping:
            return Shutdown(request.request_id, "router stopped")
        if not self._started:
            await self.start()
        if OBS.enabled:
            OBS.metrics.counter("router.requests").inc()
        if isinstance(request, HealthRequest):
            return await self._health(request)
        if isinstance(request, MetricsRequest):
            return await self._metrics(request)
        region = getattr(request, "region", "default")
        candidates = self._candidates.get(region)
        if candidates is None:
            # The ring is immutable after build (respawn reuses worker
            # ids), so region placement is cached: one sha1 per region
            # lifetime instead of one per request.
            candidates = self.ring.candidates(region, self.settings.replicas)
            self._candidates[region] = candidates
        now = self._clock()
        eligible = [
            self.handles[worker_id]
            for worker_id in candidates
            if self.handles[worker_id].alive
            and self.handles[worker_id].breaker.allow(now)
        ]
        target = next(
            (h for h in eligible if h.outstanding < self.settings.window),
            None,
        )
        if target is None:
            self.stats.shed_overloaded += 1
            if OBS.enabled:
                OBS.metrics.counter("router.shed.overloaded").inc()
            return Overloaded(
                request.request_id,
                f"all {len(candidates)} replicas for region {region!r} "
                f"are saturated (window {self.settings.window})",
            )
        try:
            response = await self._send(target, request)
        except WorkerTransportError:
            target.breaker.record_failure(self._clock())
            self.stats.retries += 1
            if OBS.enabled:
                OBS.metrics.counter("router.retries").inc()
            alternate = next(
                (
                    h
                    for h in eligible
                    if h is not target
                    and h.alive
                    and h.outstanding < self.settings.window
                ),
                None,
            )
            if alternate is None:
                return Unavailable(
                    request.request_id,
                    f"worker {target.worker_id} connection lost and no "
                    f"live replica remains for region {region!r}",
                )
            try:
                response = await self._send(alternate, request)
            except WorkerTransportError:
                alternate.breaker.record_failure(self._clock())
                return Unavailable(
                    request.request_id,
                    f"both replicas for region {region!r} failed",
                )
            alternate.breaker.record_success(self._clock())
            return response
        target.breaker.record_success(self._clock())
        return response

    async def _send(self, handle: WorkerHandle, request: Request) -> Response:
        """Forward over the pipelined connection; the response comes back
        via the reader task, correlated by a router-scoped wire id (the
        original ``request_id`` is restored before returning, so clients
        never see the rewrite).

        Requests are not written one line at a time: each ``_send``
        appends its document to the handle's outbox and schedules one
        flush per event-loop iteration (``call_soon``), so every request
        submitted in the same iteration -- the common case under load,
        where many client tasks run back to back -- travels as a single
        JSON array frame.  Coalescing at the transport is what makes the
        per-request IPC cost scale with bytes instead of wakeups; it adds
        no latency because the flush runs before the loop sleeps."""
        if not handle.alive or handle.writer is None:
            raise WorkerTransportError(
                f"worker {handle.worker_id} is not connected"
            )
        loop = asyncio.get_running_loop()
        wire_id = f"x{handle.seq}"
        handle.seq += 1
        future = loop.create_future()
        handle.inflight[wire_id] = future
        handle.outstanding += 1
        self.stats.routed += 1
        self.stats.by_worker[handle.worker_id] = (
            self.stats.by_worker.get(handle.worker_id, 0) + 1
        )
        if handle.outstanding > self.stats.max_outstanding:
            self.stats.max_outstanding = handle.outstanding
        doc = encode_request(request)
        doc["request_id"] = wire_id
        handle.outbox.append(doc)
        if not handle.flush_scheduled:
            handle.flush_scheduled = True
            loop.call_soon(self._flush, handle)
        try:
            response = await future
        finally:
            handle.outstanding -= 1
            handle.inflight.pop(wire_id, None)
        return replace(response, request_id=request.request_id)

    def _flush(self, handle: WorkerHandle) -> None:
        """Write the handle's queued request documents as one frame (a
        bare object for a single request, an array for a coalesced
        batch).  A transport failure fails exactly this batch's futures;
        their ``submit`` callers retry on a replica."""
        handle.flush_scheduled = False
        batch = handle.outbox
        if not batch:
            return
        handle.outbox = []
        payload = json.dumps(batch[0] if len(batch) == 1 else batch)
        try:
            handle.writer.write((payload + "\n").encode("utf-8"))
        except (ConnectionError, OSError) as exc:
            for doc in batch:
                future = handle.inflight.get(doc["request_id"])
                if future is not None and not future.done():
                    future.set_exception(
                        WorkerTransportError(
                            f"worker {handle.worker_id} write failed: {exc}"
                        )
                    )

    async def _read_loop(self, handle: WorkerHandle) -> None:
        """Drain one worker connection, resolving in-flight futures in
        completion order; a frame may be a single response document or an
        array (the worker answers synchronously-resolvable requests of a
        coalesced frame as one array).  EOF or transport failure fails
        all in-flight futures (their senders retry on a replica)."""
        try:
            while True:
                line = await handle.reader.readline()
                if not line:
                    break
                frame = json.loads(line)
                for doc in frame if isinstance(frame, list) else (frame,):
                    response = decode_response(doc)
                    future = handle.inflight.get(response.request_id)
                    if future is not None and not future.done():
                        future.set_result(response)
        except (ConnectionError, OSError):
            pass
        finally:
            handle.alive = False
            for future in handle.inflight.values():
                if not future.done():
                    future.set_exception(
                        WorkerTransportError(
                            f"worker {handle.worker_id} connection closed"
                        )
                    )

    # ------------------------------------------------------------------
    # Aggregated health / metrics
    # ------------------------------------------------------------------

    async def _health(self, request: HealthRequest) -> HealthResponse:
        """Fan the probe out to live workers and sum their gauges; the
        router's own shed/respawn counters ride in ``stats``."""
        live = [h for h in self.handles.values() if h.alive]
        probes = await asyncio.gather(
            *(
                self._send(h, HealthRequest(f"{request.request_id}.w{h.worker_id}"))
                for h in live
            ),
            return_exceptions=True,
        )
        worker_health: List[HealthResponse] = [
            p for p in probes if isinstance(p, HealthResponse)
        ]
        stats: Dict[str, int] = {
            "workers": len(self.handles),
            "workers_live": len(worker_health),
            "router_shed_overloaded": self.stats.shed_overloaded,
            "router_retries": self.stats.retries,
            "router_respawns": self.stats.respawns,
            "router_max_outstanding": self.stats.max_outstanding,
        }
        for probe in worker_health:
            for key, value in probe.stats.items():
                if isinstance(value, int):
                    stats[key] = stats.get(key, 0) + value
        degraded = len(worker_health) < len(self.handles) or any(
            p.status != "ok" for p in worker_health
        )
        return HealthResponse(
            request_id=request.request_id,
            status="stopping"
            if self._stopping
            else ("degraded" if degraded else "ok"),
            queue_depth=sum(p.queue_depth for p in worker_health)
            + sum(h.outstanding for h in self.handles.values()),
            in_flight=sum(p.in_flight for p in worker_health),
            served=sum(p.served for p in worker_health),
            shed=sum(p.shed for p in worker_health)
            + self.stats.shed_overloaded,
            stats=stats,
        )

    async def _metrics(self, request: MetricsRequest) -> MetricsResponse:
        """One fleet-wide OpenMetrics exposition: each worker's registry
        is pulled over its control pipe (pickled) and merged with the
        router's own registry."""
        from repro.observability.metrics import MetricsRegistry

        async with self._metrics_lock:
            loop = asyncio.get_running_loop()
            registries = await loop.run_in_executor(
                None, self._collect_registries
            )
        merged = MetricsRegistry()
        if OBS.enabled and OBS.metrics is not None:
            merged.merge(OBS.metrics)
        for registry in registries:
            merged.merge(registry)
        return MetricsResponse(
            request_id=request.request_id,
            body=render_openmetrics(merged),
            metric_count=len(merged),
        )

    def _collect_registries(self) -> List[object]:
        out: List[object] = []
        for handle in self.handles.values():
            if not handle.alive or handle.process is None:
                continue
            if not handle.process.is_alive():
                continue
            try:
                handle.conn.send(("metrics",))
                if handle.conn.poll(10.0):
                    tag, registry = handle.conn.recv()
                    if tag == "metrics" and registry is not None:
                        out.append(registry)
            except (OSError, EOFError, BrokenPipeError):
                continue
        return out

    # ------------------------------------------------------------------
    # Maintenance: health probes, eviction, respawn
    # ------------------------------------------------------------------

    async def _maintenance(self) -> None:
        """Periodic sweep: probe live workers (breaker-accounted), evict
        and respawn dead ones.  Runs until cancelled by ``stop``."""
        loop = asyncio.get_running_loop()
        probe_seq = 0
        while True:
            await asyncio.sleep(self.settings.health_interval_s)
            for handle in list(self.handles.values()):
                process_dead = (
                    handle.process is None or not handle.process.is_alive()
                )
                if not handle.alive or process_dead:
                    try:
                        await self._respawn(handle, loop)
                    except Exception:  # noqa: BLE001 - keep sweeping
                        handle.breaker.record_failure(self._clock())
                    continue
                probe_seq += 1
                try:
                    await self._send(
                        handle, HealthRequest(f"maint-{probe_seq}")
                    )
                except WorkerTransportError:
                    handle.breaker.record_failure(self._clock())
                else:
                    handle.breaker.record_success(self._clock())

    async def _respawn(self, handle: WorkerHandle, loop) -> None:
        """Replace a dead worker in place: same worker id, same arena,
        fresh process -- the hash ring is untouched, so routing for every
        other shard stays stable."""
        self.stats.respawns += 1
        if OBS.enabled:
            OBS.metrics.counter("router.respawns").inc()
        if handle.read_task is not None:
            handle.read_task.cancel()
            try:
                await handle.read_task
            except asyncio.CancelledError:  # pragma: no cover
                pass
        if handle.writer is not None:
            handle.writer.close()
        if handle.process is not None and handle.process.is_alive():
            handle.process.terminate()
            await loop.run_in_executor(None, handle.process.join, 5.0)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass
        handle.process, handle.conn = spawn_worker(handle.spec)
        await self._connect(handle, loop)
        handle.breaker.record_success(self._clock())

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    async def serve_script(self, requests: List[Request]) -> List[Response]:
        """Start, serve ``requests`` concurrently, stop -- mirrors
        ``PredictionServer.serve_script`` for the CLI and tests."""
        await self.start()
        try:
            return list(
                await asyncio.gather(*(self.submit(r) for r in requests))
            )
        finally:
            await self.stop()
