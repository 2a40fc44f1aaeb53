"""The in-process async gateway and its JSON-over-TCP front end.

Request flow (``docs/serving.md`` has the full diagram)::

    client -> submit() -> AdmissionController -> bounded queue
           -> dispatch loop -> handler task -> MicroBatcher (per config)
           -> _run_batch: FastPredictor.predict_fleet (breaker + retry)
           -> response future

    worker frame -> submit_frame_nowait() -> AdmissionController
           -> by-id predicts grouped per config
           -> _run_batch (same loop turn) -> answers in document order

The server is a single asyncio event loop: handlers are coroutine tasks,
the predictor evaluation itself is synchronous numpy (micro-batched, so
one kernel sweep answers many requests, each at its own ``now``).
Admission bounds queued + in-flight work and sheds the rest with typed
rejections; the dispatch loop measures queue wait and re-checks
deadlines, and the batcher closes each batch at the end of the loop turn
that opened it.  A decoded frame of by-id predicts needs none of that
machinery: it is answered synchronously, one kernel call per config.
Nothing is memoised: Algorithm 4 anchors its windows at ``now``, so a
memo keyed on ``now`` could only replay a call already made.

Resilience wiring mirrors the simulator's proactive policy: the
``serving.handler`` fault point can fail an evaluation, a
:class:`~repro.faults.resilience.RetryPolicy` absorbs transients, and a
:class:`~repro.faults.resilience.CircuitBreaker` opens after repeated
failures so a broken predictor back end answers ``Unavailable``
immediately instead of burning the queue.

``stop()`` is the graceful-shutdown contract: new arrivals are rejected
with :class:`~repro.serving.requests.Shutdown`, queued-but-unstarted
requests are drained and rejected the same way, in-flight handlers are
awaited, and the metrics snapshot is exported when configured.  No
request future is ever left pending -- a regression test pins that.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import DEFAULT_CONFIG, ProRPConfig
from repro.core.fast_predictor import get_fast_predictor
from repro.errors import (
    CircuitOpenError,
    ConfigError,
    FaultInjectedError,
    ProRPError,
)
from repro.faults.resilience import CircuitBreaker, RetryPolicy
from repro.faults.runtime import FAULTS
from repro.observability import exporters
from repro.observability.metrics import LATENCY_BUCKETS_MS
from repro.observability.openmetrics import render_openmetrics
from repro.observability.runtime import OBS
from repro.serving.admission import AdmissionController, AdmissionPolicy
from repro.serving.batcher import MicroBatcher
from repro.serving.requests import (
    ErrorResponse,
    HealthRequest,
    HealthResponse,
    InvalidRequest,
    MetricsRequest,
    MetricsResponse,
    PredictRequest,
    PredictResponse,
    Request,
    Response,
    ResumeScanRequest,
    ResumeScanResponse,
    ServingProtocolError,
    Shutdown,
    Unavailable,
    decode_request,
    encode_response,
)
from repro.types import PredictedActivity

#: Fault point consulted once per batch evaluation: the predictor back
#: end fails (retried, then breaker-accounted).
HANDLER_FAULT_POINT = "serving.handler"

#: Names pre-registered into the metrics registry at start() so a
#: snapshot always carries the serving namespace, even before traffic.
_PREREGISTERED_COUNTERS = (
    "serving.requests.predict",
    "serving.requests.resume_scan",
    "serving.requests.health",
    "serving.requests.metrics",
    "serving.admitted",
    "serving.served",
    "serving.errors",
    "serving.shed.queue_full",
    "serving.shed.rate_limited",
    "serving.shed.deadline",
    "serving.shed.shutdown",
    "serving.health.probes",
    "serving.health.metrics_scrapes",
    "slo.evaluations",
    "slo.alerts.fired",
    "slo.alerts.cleared",
)

#: What ``predict_fleet``'s one-shot int64 conversion raises for a history
#: (or ``now``) that is not made of int64-representable integers.
_CONVERSION_ERRORS = (OverflowError, TypeError, ValueError)


def _by_id(request: Request) -> bool:
    """A predict that names a registered database instead of carrying
    its history: the only kind the frame path serves."""
    return isinstance(request, PredictRequest) and request.database_id is not None


def _elapsed_ms(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0

#: Wall-clock window for the gateway's live series (shed/latency per
#: tenant): one second, matching the serving SLOs' fast window.
SERVING_WINDOW_S = 1.0


@dataclass(frozen=True)
class ServingSettings:
    """Gateway knobs: queueing, batching, rate limiting, resilience."""

    max_queue_depth: int = 256
    max_batch_size: int = 64
    tenant_rate: float = 0.0
    tenant_burst: float = 8.0
    retry_attempts: int = 2
    breaker_failure_threshold: int = 5
    breaker_recovery_s: float = 1.0
    #: When set, ``stop()`` flushes the live metrics snapshot here
    #: (JSON when the path ends in .json, plain text otherwise).
    metrics_out: Optional[str] = None

    def admission_policy(self) -> AdmissionPolicy:
        return AdmissionPolicy(
            max_queue_depth=self.max_queue_depth,
            tenant_rate=self.tenant_rate,
            tenant_burst=self.tenant_burst,
        )


@dataclass
class ServerStats:
    """Always-on plain-int accounting (the HOT_PATH discipline)."""

    served: int = 0
    errors: int = 0
    max_depth: int = 0
    #: Never written; ``benchmarks/e2e/serve_workloads.py`` reads both.
    cache_hits: int = 0
    cache_misses: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def count(self, kind: str) -> None:
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1


class _QueueEntry:
    __slots__ = ("request", "future", "enqueued_at")

    def __init__(self, request: Request, future: asyncio.Future, enqueued_at: float):
        self.request = request
        self.future = future
        self.enqueued_at = enqueued_at


_STOP = object()


class PredictionServer:
    """The online gateway over the fleet-prediction hot path.

    ``configs`` maps the config names requests carry to knob sets; the
    default maps ``"default"`` to :data:`repro.config.DEFAULT_CONFIG`.
    ``clock`` is injectable for deterministic queue-wait/deadline tests.
    """

    def __init__(
        self,
        configs: Optional[Dict[str, ProRPConfig]] = None,
        settings: Optional[ServingSettings] = None,
        clock: Callable[[], float] = time.monotonic,
        slo_monitor=None,
        control_plane=None,
    ):
        self.settings = settings if settings is not None else ServingSettings()
        self._configs = dict(configs) if configs else {"default": DEFAULT_CONFIG}
        self._clock = clock
        #: Optional :class:`repro.observability.slo.SloMonitor` ticked on
        #: every served request; its ledger feeds the health endpoint.
        self.slo_monitor = slo_monitor
        #: Optional :class:`repro.controlplane.durability.
        #: DurableWorkflowEngine`: each resume scan's selected databases
        #: become journaled PROACTIVE_RESUME workflows, and ``stop()``
        #: checkpoints the engine before the gateway exits so a restart
        #: recovers exactly the workflows it was driving.
        self.control_plane = control_plane
        self.admission = AdmissionController(
            self.settings.admission_policy(), clock=clock
        )
        self.batcher = MicroBatcher(
            self._run_batch, max_batch_size=self.settings.max_batch_size
        )
        self._retry = RetryPolicy(
            max_attempts=max(1, self.settings.retry_attempts),
            base_delay_s=0.0,
            jitter=0.0,
        )
        self._breaker = CircuitBreaker(
            failure_threshold=self.settings.breaker_failure_threshold,
            recovery_s=self.settings.breaker_recovery_s,
            name="serving.predictor",
        )
        self.stats = ServerStats()
        #: region -> database id -> (sorted logins, physically paused?).
        #: Values may be plain dicts (in-process registry) or read-only
        #: shared-memory views (:meth:`attach_fleet` on sharded workers);
        #: both speak ``get``/``__getitem__``/``items``.
        self._fleet: Dict[str, Dict[str, Tuple[Sequence[int], bool]]] = {}
        #: tenant -> the latency streams of ``_streams_registry``.
        self._streams_registry = None
        self._streams: Dict[str, tuple] = {}
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._in_flight: set = set()
        self._dispatch_task: Optional[asyncio.Task] = None
        self._started = False
        self._stopping = False

    # ------------------------------------------------------------------
    # Fleet registry (the resume scan's metadata substitute)
    # ------------------------------------------------------------------

    def register_database(
        self,
        region: str,
        database_id: str,
        logins: Sequence[int],
        paused: bool = True,
    ) -> None:
        """Register one database's login history for resume scans and
        by-id predictions."""
        self._fleet.setdefault(region, {})[database_id] = (logins, paused)

    def attach_fleet(self, views: Dict[str, object]) -> None:
        """Serve the fleet from externally-owned views (the sharded
        worker's read-only :class:`~repro.serving.sharded.arena.
        SharedHistoryArena` mapping).  Each region view must speak
        ``get``/``__getitem__``/``items`` yielding ``(logins, paused)``;
        the writer (the router) owns all mutation."""
        self._fleet = dict(views)  # type: ignore[assignment]

    def set_paused(self, region: str, database_id: str, paused: bool) -> None:
        logins, _ = self._fleet[region][database_id]
        self._fleet[region][database_id] = (logins, paused)

    def append_login(self, region: str, database_id: str, ts: int) -> None:
        """Append one login to a registered history (ascending, deduped
        on timestamp, mirroring ``HistoryStore`` semantics)."""
        logins, paused = self._fleet[region][database_id]
        if logins and ts < logins[-1]:
            raise ConfigError(
                f"login {ts} is older than the newest history entry "
                f"{logins[-1]} for {database_id!r}"
            )
        if logins and ts == logins[-1]:
            return
        self._fleet[region][database_id] = (tuple(logins) + (ts,), paused)

    def _resolve_database(self, request: PredictRequest) -> Sequence[int]:
        """The registered logins of a by-id request, or a typed protocol
        error when the database is not registered."""
        region, database_id = request.region, request.database_id
        fleet = self._fleet.get(region)
        entry = fleet.get(database_id) if fleet is not None else None
        if entry is None:
            raise ServingProtocolError(
                f"unknown database {database_id!r} in region {region!r}"
            )
        return entry[0]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Start the dispatch loop; idempotent until stopped."""
        self._ensure_started()

    def _ensure_started(self) -> None:
        """The synchronous body of :meth:`start`, callable from the
        fast path (it only creates the dispatch task, so it needs a
        running event loop but never awaits)."""
        if self._started:
            return
        if self._stopping:
            raise ConfigError("a stopped PredictionServer cannot restart")
        self._started = True
        if OBS.enabled:
            for name in _PREREGISTERED_COUNTERS:
                OBS.metrics.counter(name)
            OBS.metrics.histogram(
                "serving.queue.wait_ms", buckets=LATENCY_BUCKETS_MS
            )
            OBS.metrics.histogram(
                "serving.latency_ms", buckets=LATENCY_BUCKETS_MS
            )
            OBS.metrics.gauge("serving.queue.depth").set(0)
            # The windowed streams the serving SLO rules evaluate; created
            # up front so a scrape shows the families even before traffic.
            OBS.metrics.counter_series(
                "serving.requests.window", window_s=SERVING_WINDOW_S
            )
            OBS.metrics.counter_series(
                "serving.shed.window", window_s=SERVING_WINDOW_S
            )
            OBS.metrics.histogram_series(
                "serving.latency_ms.window",
                window_s=SERVING_WINDOW_S,
                buckets=LATENCY_BUCKETS_MS,
            )
        self._dispatch_task = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def stop(self) -> None:
        """Graceful shutdown: reject queued work, drain in-flight work.

        Ordering matters: close admission first (new arrivals see
        ``Shutdown``), drain the queue (FIFO entries the dispatcher has
        not started get ``Shutdown``), stop the dispatcher, then await
        every in-flight handler (each batch closes at the end of the
        turn that opened it, so none can hang).  Finally export the
        metrics snapshot when configured.
        """
        if not self._started or self._stopping:
            self._stopping = True
            return
        self._stopping = True
        drained: List[_QueueEntry] = []
        while not self._queue.empty():
            entry = self._queue.get_nowait()
            if entry is not _STOP:
                drained.append(entry)
        for entry in drained:
            self.admission.shed["shutdown"] += 1
            if OBS.enabled:
                OBS.metrics.counter("serving.shed.shutdown").inc()
                OBS.metrics.counter_series(
                    "serving.shed.window", window_s=SERVING_WINDOW_S
                ).inc(self._clock())
            self._resolve(
                entry,
                Shutdown(entry.request.request_id, "server stopped while queued"),
                None,
            )
        self._queue.put_nowait(_STOP)
        if self._dispatch_task is not None:
            await self._dispatch_task
            self._dispatch_task = None
        while self._in_flight:
            await asyncio.gather(
                *list(self._in_flight), return_exceptions=True
            )
        if self.control_plane is not None:
            # Every in-flight handler has resolved, so no further resume
            # scans can submit workflows: checkpoint + close the durable
            # engine so a restart recovers without replaying the full WAL.
            self.control_plane.close()
        if self.settings.metrics_out and OBS.enabled and OBS.metrics is not None:
            exporters.write_metrics_snapshot(
                OBS.metrics, self.settings.metrics_out, title="serving"
            )

    @property
    def stopping(self) -> bool:
        return self._stopping

    def depth(self) -> int:
        """Current logical queue depth: queued plus in-flight requests."""
        return self._queue.qsize() + len(self._in_flight)

    # ------------------------------------------------------------------
    # Request entry point
    # ------------------------------------------------------------------

    async def submit(self, request: Request) -> Response:
        """Serve one request; always returns a typed response."""
        response, future = self.submit_nowait(request)
        if response is not None:
            return response
        return await future  # type: ignore[return-value]

    def submit_nowait(
        self, request: Request
    ) -> Tuple[Optional[Response], Optional["asyncio.Future"]]:
        """Admit one request without awaiting it.

        Returns ``(response, None)`` when the request resolves
        synchronously -- health/metrics probes, typed admission
        rejections, and by-id predicts naming an unknown database or
        config -- else ``(None, future)`` with the request enqueued for
        the dispatch loop; awaiting the future yields the typed response.
        Must be called from within a running event loop.
        """
        started = time.perf_counter()
        response = self._admit(request)
        if response is None and _by_id(request):
            response, _ = self._resolve_by_id(request, started)
        if response is not None:
            return response, None
        loop = asyncio.get_running_loop()
        entry = _QueueEntry(request, loop.create_future(), self._clock())
        self._queue.put_nowait(entry)
        depth = self.depth()
        if depth > self.stats.max_depth:
            self.stats.max_depth = depth
        if OBS.enabled:
            OBS.metrics.gauge("serving.queue.depth").set(depth)
        return None, entry.future

    def submit_frame_nowait(
        self, requests: Sequence[Request]
    ) -> List[Tuple[Optional[Response], Optional["asyncio.Future"]]]:
        """Admit one decoded frame (the sharded worker's front end):
        :meth:`submit_nowait`'s ``(response, future)`` per request, in
        order.  By-id predicts never queue: each is admitted and resolved,
        and all of them are answered in this same call with one guarded
        kernel call per config name (chunked at ``max_batch_size``), each
        entry at its own ``now``.  Every other request goes through
        :meth:`submit_nowait`.  An exception while admitting one request
        is that request's answer alone."""
        started = time.perf_counter()
        answers: List[Tuple[Optional[Response], Optional[asyncio.Future]]] = []
        by_config: Dict[str, List[tuple]] = {}
        for request in requests:
            try:
                if not _by_id(request):
                    answers.append(self.submit_nowait(request))
                    continue
                response = self._admit(request)
                if response is None:
                    response, logins = self._resolve_by_id(request, started)
                    if response is None:
                        by_config.setdefault(request.config, []).append(
                            (len(answers), request, logins)
                        )
                answers.append((response, None))
            except Exception as exc:  # noqa: BLE001 - see contained()
                answers.append((contained(request.request_id, exc), None))
        size = self.settings.max_batch_size
        for config_name, entries in by_config.items():
            for lo in range(0, len(entries), size):
                chunk = entries[lo : lo + size]
                responses = self._answer_chunk(config_name, chunk, started)
                for (slot, _, _), response in zip(chunk, responses):
                    answers[slot] = (response, None)
        return answers

    def _admit(self, request: Request) -> Optional[Response]:
        """Count the request, answer probes, run admission: a response
        here is final; ``None`` means admitted."""
        if OBS.enabled:
            OBS.metrics.counter(f"serving.requests.{request.kind}").inc()
            OBS.metrics.counter_series(
                "serving.requests.window", window_s=SERVING_WINDOW_S
            ).inc(self._clock())
        if isinstance(request, HealthRequest):
            return self._health(request)
        if isinstance(request, MetricsRequest):
            return self._metrics(request)
        if not self._started and not self._stopping:
            self._ensure_started()
        return self.admission.admit(
            request, depth=self.depth(), stopping=self._stopping
        )

    def _resolve_by_id(
        self, request: PredictRequest, started: float
    ) -> Tuple[Optional[Response], Sequence[int]]:
        """``(None, logins)`` for a by-id predict whose config and database
        are known, else a served ``InvalidRequest`` and no logins."""
        try:
            self._config(request.config)
            return None, self._resolve_database(request)
        except ServingProtocolError as exc:
            response = InvalidRequest(request.request_id, str(exc))
            self._served(request, response, _elapsed_ms(started))
            return response, ()

    def _answer_chunk(
        self, config_name: str, chunk: List[tuple], started: float
    ) -> List[Response]:
        """One kernel call for a frame's by-id predicts of one config:
        ``chunk`` holds ``(slot, request, logins)`` entries."""
        self.batcher.note_batch(len(chunk))
        try:
            predictions: list = self._run_batch(
                config_name,
                [logins for _, _, logins in chunk],
                [request.now for _, request, _ in chunk],
            )
        except Exception as exc:  # noqa: BLE001 - every entry is answered
            predictions = [exc] * len(chunk)
        total_ms = _elapsed_ms(started)
        responses: List[Response] = []
        for (_, request, _), prediction in zip(chunk, predictions):
            # The same outcomes, in the same order, as _handle_predict.
            try:
                if isinstance(prediction, Exception):
                    raise prediction
                response: Response = self._predicted(
                    request, prediction, len(chunk), 0.0
                )
            except ServingProtocolError as exc:
                response = InvalidRequest(request.request_id, str(exc))
            except Exception as exc:  # noqa: BLE001 - every entry is answered
                response = self._failed(request.request_id, exc)
            self._served(request, response, total_ms)
            responses.append(response)
        return responses

    def _health(self, request: HealthRequest) -> HealthResponse:
        if OBS.enabled:
            OBS.metrics.counter("serving.health.probes").inc()
        status = "stopping" if self._stopping else (
            "ok" if self._started else "idle"
        )
        stats = {
            "errors": self.stats.errors,
            "max_depth": self.stats.max_depth,
            "batches": self.batcher.batches,
            "batched_requests": self.batcher.batched_requests,
            "breaker_opens": self._breaker.opens,
            **{f"shed_{k}": v for k, v in self.admission.shed.items()},
        }
        if self.slo_monitor is not None:
            ledger = self.slo_monitor.ledger
            active = ledger.active()
            stats["slo_alerts_active"] = len(active)
            stats["slo_alerts_fired"] = ledger.fired_count()
            stats["slo_alerts_cleared"] = ledger.cleared_count()
            if active:
                status = "degraded" if status == "ok" else status
        return HealthResponse(
            request_id=request.request_id,
            status=status,
            queue_depth=self.depth(),
            in_flight=len(self._in_flight),
            served=self.stats.served,
            shed=self.admission.total_shed(),
            stats=stats,
        )

    def _metrics(self, request: MetricsRequest) -> MetricsResponse:
        """Synchronous OpenMetrics scrape -- like health, it bypasses
        admission so the monitoring plane survives overload."""
        if OBS.enabled:
            OBS.metrics.counter("serving.health.metrics_scrapes").inc()
            registry = OBS.metrics
        else:
            registry = None
        return MetricsResponse(
            request_id=request.request_id,
            body=render_openmetrics(registry),
            metric_count=len(registry) if registry is not None else 0,
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            entry = await self._queue.get()
            if entry is _STOP:
                return
            waited_ms = (self._clock() - entry.enqueued_at) * 1000.0
            if OBS.enabled:
                OBS.metrics.histogram(
                    "serving.queue.wait_ms", buckets=LATENCY_BUCKETS_MS
                ).observe(waited_ms)
            deadline_ms = getattr(entry.request, "deadline_ms", None)
            if deadline_ms is not None and waited_ms > deadline_ms:
                self._resolve(
                    entry,
                    self.admission.shed_deadline(
                        entry.request.request_id,
                        waited_ms,
                        tenant=getattr(entry.request, "tenant", "default"),
                    ),
                    None,
                )
                continue
            task = loop.create_task(self._handle(entry, waited_ms))
            self._in_flight.add(task)
            task.add_done_callback(self._in_flight.discard)

    async def _handle(self, entry: _QueueEntry, waited_ms: float) -> None:
        started = time.perf_counter()
        request = entry.request
        try:
            if isinstance(request, PredictRequest):
                response = await self._handle_predict(request, waited_ms)
            elif isinstance(request, ResumeScanRequest):
                response = await self._handle_resume_scan(request, waited_ms)
            else:  # pragma: no cover - admission admits typed requests only
                response = InvalidRequest(
                    request.request_id, f"unhandled request {request!r}"
                )
        except Exception as exc:  # noqa: BLE001 - the future must resolve
            # Besides the typed failures (breaker open, retries spent),
            # anything the handlers missed (e.g. a ValueError from numpy
            # coercion of malformed logins) would otherwise strand this
            # future -- and, via the batcher, every co-batched one.
            response = self._failed(request.request_id, exc)
        self._resolve(entry, response, _elapsed_ms(started) + waited_ms)

    def _failed(self, request_id: str, exc: Exception) -> Unavailable:
        """The typed answer to an evaluation that raised."""
        if isinstance(exc, CircuitOpenError):
            return self._error(request_id, f"breaker open: {exc}")
        if isinstance(exc, ProRPError):
            return self._error(request_id, str(exc))
        return self._error(request_id, f"internal error: {exc!r}")

    def _error(self, request_id: str, message: str) -> Unavailable:
        self.stats.errors += 1
        if OBS.enabled:
            OBS.metrics.counter("serving.errors").inc()
        return Unavailable(request_id, message)

    def _resolve(
        self, entry: _QueueEntry, response: Response, total_ms: Optional[float]
    ) -> None:
        if not entry.future.done():
            self._served(entry.request, response, total_ms)
            entry.future.set_result(response)

    def _served(
        self, request: Request, response: Response, total_ms: Optional[float]
    ) -> None:
        """Bookkeeping for one answered request, whichever path answered
        it (dispatch loop, frame, synchronous refusal): the served
        counters and -- unless it was shed unstarted (``total_ms is
        None``) -- the latency streams the serving SLO evaluates, then
        the SLO tick."""
        self.stats.served += 1
        self.stats.count(response.kind)
        if not OBS.enabled:
            return
        OBS.metrics.counter("serving.served").inc()
        if total_ms is None:
            return
        latency, window, tenant = self._latency_streams(
            getattr(request, "tenant", "default")
        )
        latency.observe(total_ms)
        now = self._clock()
        # The per-tenant windowed stream the latency SLO evaluates; the
        # exemplar pins each window's worst request by id, so a paging
        # p99 links straight to the offending trace.
        window.observe(now, total_ms, exemplar=request.request_id)
        tenant.observe(now, total_ms, exemplar=request.request_id)
        if self.slo_monitor is not None:
            self.slo_monitor.maybe_evaluate(now)

    def _latency_streams(self, tenant: str) -> tuple:
        """``serving.latency_ms``, its 1 s window and ``tenant``'s window
        in the live registry, looked up once per registry and tenant:
        the lookups cost twice what the observations do."""
        registry = OBS.metrics
        if self._streams_registry is not registry:
            self._streams_registry, self._streams = registry, {}
        streams = self._streams.get(tenant)
        if streams is None:
            streams = self._streams[tenant] = (
                registry.histogram("serving.latency_ms", buckets=LATENCY_BUCKETS_MS),
                registry.histogram_series(
                    "serving.latency_ms.window",
                    window_s=SERVING_WINDOW_S,
                    buckets=LATENCY_BUCKETS_MS,
                ),
                registry.histogram_series(
                    "serving.tenant.latency_ms",
                    window_s=SERVING_WINDOW_S,
                    buckets=LATENCY_BUCKETS_MS,
                    labels={"tenant": tenant},
                ),
            )
        return streams

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _config(self, name: str) -> ProRPConfig:
        config = self._configs.get(name)
        if config is None:
            raise ServingProtocolError(f"unknown config {name!r}")
        return config

    async def _handle_predict(
        self, request: PredictRequest, waited_ms: float
    ) -> Response:
        self._config(request.config)  # validate before batching
        logins: Sequence[int] = request.logins
        if request.database_id is not None:
            logins = self._resolve_database(request)
        try:
            prediction, batch_size = await self.batcher.submit(
                request.config, logins, request.now
            )
        except ServingProtocolError as exc:
            # This request's own logins / now (see _run_batch).
            return InvalidRequest(request.request_id, str(exc))
        return self._predicted(request, prediction, batch_size, waited_ms)

    def _predicted(
        self,
        request: PredictRequest,
        prediction: PredictedActivity,
        batch_size: int,
        waited_ms: float,
    ) -> PredictResponse:
        """The answer to one evaluated predict."""
        return PredictResponse(
            request_id=request.request_id,
            prediction=prediction,
            batch_size=batch_size,
            queue_wait_ms=waited_ms,
        )

    async def _handle_resume_scan(
        self, request: ResumeScanRequest, waited_ms: float
    ) -> Response:
        """Algorithm 5 over the registered fleet: predict every paused
        database in one batched evaluation, pre-warm those whose start
        falls in the k-th window from now."""
        fleet = self._fleet.get(request.region, {})
        paused = [
            (database_id, logins)
            for database_id, (logins, is_paused) in fleet.items()
            if is_paused
        ]
        if not paused:
            return ResumeScanResponse(
                request_id=request.request_id,
                database_ids=(),
                scanned=0,
                queue_wait_ms=waited_ms,
            )
        predictions = self._run_batch(
            request.config,
            [logins for _, logins in paused],
            [request.now] * len(paused),
        )
        for prediction in predictions:
            if isinstance(prediction, ServingProtocolError):
                raise prediction
        window_start = request.now + request.prewarm_s
        window_end = window_start + request.period_s
        selected = tuple(
            database_id
            for (database_id, _), prediction in zip(paused, predictions)
            if not prediction.is_empty
            and window_start <= prediction.start < window_end
        )
        if OBS.enabled:
            OBS.metrics.counter("serving.resume_scan.prewarms").inc(
                len(selected)
            )
        if self.control_plane is not None and selected:
            from repro.controlplane.workflows import WorkflowKind

            for database_id in selected:
                self.control_plane.submit(
                    WorkflowKind.PROACTIVE_RESUME, database_id, request.now
                )
            self.control_plane.tick(request.now)
        return ResumeScanResponse(
            request_id=request.request_id,
            database_ids=selected,
            scanned=len(paused),
            queue_wait_ms=waited_ms,
        )

    # ------------------------------------------------------------------
    # Guarded predictor evaluation
    # ------------------------------------------------------------------

    def _run_batch(
        self,
        config_name: str,
        fleet_logins: List[Sequence[int]],
        nows: List[int],
    ) -> List[Union[PredictedActivity, ServingProtocolError]]:
        """The one guarded evaluation (the batcher's callback, the frame
        path and the resume scan): resolve the config and run
        ``predict_fleet``, each history at its own ``now``, behind the
        breaker and retry policy, consulting the ``serving.handler`` fault
        point once per attempt.  Requests submitted in process were never
        decoded, so their ``logins`` / ``now`` may not convert to int64;
        nothing is checked up front, and when the one-shot conversion
        fails each entry is evaluated alone, so only the offender's entry
        is a :class:`ServingProtocolError`."""
        config = self._config(config_name)
        if not self._breaker.allow(self._clock()):
            raise CircuitOpenError(
                "serving.predictor breaker is open; shedding evaluation"
            )
        predictor = get_fast_predictor(config)

        def alone(logins: Sequence[int], now: int):
            try:
                return predictor.predict_fleet([logins], [now])[0]
            except _CONVERSION_ERRORS as exc:
                return ServingProtocolError(
                    f"logins and now must be int64 timestamps: {exc}"
                )

        def attempt() -> List[Union[PredictedActivity, ServingProtocolError]]:
            if FAULTS.enabled and FAULTS.injector is not None:
                if FAULTS.injector.should_fire(HANDLER_FAULT_POINT):
                    raise FaultInjectedError(
                        HANDLER_FAULT_POINT,
                        "injected: serving handler backend failure",
                    )
            try:
                return predictor.predict_fleet(fleet_logins, nows)
            except _CONVERSION_ERRORS:
                return list(map(alone, fleet_logins, nows))

        def on_retry(attempt_no: int, delay_s: float, error: BaseException) -> None:
            if FAULTS.enabled and FAULTS.injector is not None:
                FAULTS.injector.note("retry.serving.handler")
            if OBS.enabled:
                OBS.metrics.counter("serving.retries").inc()

        try:
            # Retries are immediate (no sleeps): the event loop must not
            # block, and transient injected faults clear on re-roll.
            results = self._retry.call(
                attempt, retry_on=(ProRPError,), on_retry=on_retry
            )
        except ProRPError:
            self._breaker.record_failure(self._clock())
            raise
        self._breaker.record_success(self._clock())
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Convenience: one-shot in-process serving
    # ------------------------------------------------------------------

    async def serve_script(self, requests: List[Request]) -> List[Response]:
        """Start, serve ``requests`` concurrently, stop.  The CLI's
        ``serve --once`` mode and tests drive the server through this."""
        await self.start()
        try:
            return list(
                await asyncio.gather(*(self.submit(r) for r in requests))
            )
        finally:
            await self.stop()


# ---------------------------------------------------------------------------
# JSON-over-TCP front end
# ---------------------------------------------------------------------------


def contained(request_id: str, exc: Exception) -> ErrorResponse:
    """The typed answer to an exception that escaped while admitting one
    request, so a front end answers its sender and keeps the connection:
    a value the codec should have refused is the sender's error, anything
    else is ours."""
    if isinstance(exc, (TypeError, ValueError)):
        return InvalidRequest(request_id, f"malformed request: {exc!r}")
    return Unavailable(request_id, f"internal error: {exc!r}")


async def handle_connection(
    server: PredictionServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: newline-delimited JSON requests in,
    newline-delimited JSON responses out.  Requests on a single
    connection are handled serially -- each is answered before the next
    line is read -- so co-batching happens across connections, not
    within one.  A malformed request costs its sender one typed answer and
    nobody else anything: the connection stays open."""
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            try:
                request = decode_request(json.loads(text))
            except (json.JSONDecodeError, ServingProtocolError) as exc:
                response: Response = InvalidRequest("?", str(exc))
            else:
                try:
                    response = await server.submit(request)
                except Exception as exc:  # noqa: BLE001 - see contained()
                    response = contained(request.request_id, exc)
            writer.write(
                (json.dumps(encode_response(response)) + "\n").encode("utf-8")
            )
            await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


async def serve_tcp(
    server: PredictionServer, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Expose ``server`` over TCP; returns the listening asyncio server
    (``.sockets[0].getsockname()`` reveals the bound port when 0)."""
    await server.start()

    async def _on_connect(reader, writer):
        await handle_connection(server, reader, writer)

    return await asyncio.start_server(_on_connect, host=host, port=port)
