"""The three serving workloads: ``serve_burst``, ``serve_tcp_pair`` and
``serve_sharded_mixed``.

All run on one asyncio loop in this process (the sharded tier's two workers
are the only other processes).  Closed-loop traffic comes in fixed-size
blocks -- each block's request count repeats exactly -- repeated for
``--seconds``; throughput is the median over blocks, latency the median over
every response.  A seeded sample of the responses is compared, after the
timed window, with ``FastPredictor.predict`` run out of band on the history
the request saw.
"""

from __future__ import annotations

import asyncio
import gc
import json
import re
import time
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (
    PROCESS_START,
    REFERENCE_SHARE,
    SETUP_REPEATS,
    Checks,
    assert_defaults,
    median,
    peak_rss_mib,
    percentile,
    process_cpu_s,
    process_peak_rss_kib,
)
from load import Ledger, TcpClient, closed_loop_block, open_loop
from spans import Recorder

#: Serving clock origin (matches the repo's serving benches).
DAY = 86_400
NOW0 = 29 * DAY

#: Offered rate of serve_sharded_mixed's steady phase: about 0.6 x the
#: closed-loop capacity measured with the full mix on the 2-core reference
#: box (see README).  A constant, never derived at run time, so two commits
#: are offered the same load.
SHARDED_STEADY_RPS = 1_600.0
SHARDED_REGIONS = 8
SHARDED_WORKERS = 2
#: One ``now`` per this many consecutive sharded requests (batches form).
SHARDED_NOW_GROUP = 256
SHARDED_APPEND_SHARE = 0.10
SHARDED_SCAN_EVERY = 1024


async def _repeat_blocks(
    seconds: float, block: Callable[[int], Awaitable[float]], first: int, min_units: int
) -> List[float]:
    """Async twin of ``common.repeat_for``; ``block(b)`` returns its own
    wall seconds.  Block numbers start at ``first`` so no two blocks of a
    run share request indices."""
    walls: List[float] = []
    started = time.perf_counter()
    b = first
    while len(walls) < min_units or time.perf_counter() - started < seconds:
        gc.collect()
        walls.append(await block(b))
        b += 1
    return walls


def _sampler(seed: int, stride: int) -> Callable[[int], bool]:
    """Which request indices keep their response for verification: a
    seeded 1-in-``stride`` pick the program cannot anticipate."""
    salt = (seed * 2_654_435_761 + 97) & 0xFFFFFFFF

    def keep(index: int) -> bool:
        return ((index * 2_246_822_519 + salt) & 0xFFFFFFFF) % stride == 0

    return keep


class ServeRun(Checks):
    """State shared by the serving workloads: checks and the recorder."""

    def __init__(self, workload: str, opts) -> None:
        super().__init__()
        self.workload = workload
        self.opts = opts
        self.recorder: Optional[Recorder] = Recorder() if opts.trace else None

    def ledger(self, phase: str, limit_ms: float, stride: int) -> Ledger:
        return Ledger(phase, limit_ms, _sampler(self.opts.seed, stride))

    def absorb(self, ledger: Ledger, mismatches: int) -> None:
        """Fold a phase's request outcomes into attempted/failed."""
        self.attempted += ledger.sent
        self.failed += ledger.failed + mismatches
        if ledger.failed:
            self.notes.append(
                f"FAILED: {ledger.phase}: {ledger.failed} requests refused or "
                f"errored {ledger.failures_by_kind}"
            )
        if mismatches:
            self.notes.append(
                f"FAILED: {ledger.phase}: {mismatches} of {len(ledger.kept)} "
                f"checked answers differ from FastPredictor.predict"
            )

    async def blocks(
        self,
        seconds: float,
        block: Callable[[int], Awaitable[float]],
        install: Callable[[Recorder], None],
        after_install: Optional[Callable[[], Awaitable[None]]] = None,
    ) -> Tuple[List[float], List[float]]:
        """``(untraced walls, traced walls)`` of closed-loop blocks, split
        like the simulation passes; ``after_install`` runs between the two
        (traced runs only) for work that must see the wrappers."""
        if self.recorder is None:
            assert_defaults()
            return await _repeat_blocks(seconds, block, 0, 3), []
        reference = await _repeat_blocks(seconds * REFERENCE_SHARE, block, 0, 2)
        recorder = self.recorder
        install(recorder)
        if after_install is not None:
            await after_install()

        async def traced_block(b: int) -> float:
            with recorder.window(f"{self.workload}.block"):
                return await block(b)

        traced = await _repeat_blocks(
            seconds * (1.0 - REFERENCE_SHARE), traced_block, len(reference), 2
        )
        return reference, traced


def _verify(
    kept: Sequence[Tuple[int, object]],
    expected: Callable[[int], Sequence[object]],
    corrupt: bool,
) -> int:
    """Number of kept responses whose prediction is not among the answers
    ``expected(index)`` allows."""
    mismatches = 0
    for position, (index, response) in enumerate(kept):
        prediction = response.prediction
        if corrupt and position == 0:
            prediction = type(prediction)(
                prediction.start + 1, prediction.end + 1, prediction.confidence
            )
        if prediction not in expected(index):
            mismatches += 1
    return mismatches


def _install_serving(rec: Recorder) -> None:
    """Wrappers around the in-process serving layers."""
    from repro.core.fast_predictor import FastPredictor
    from repro.serving import requests as codec
    from repro.serving.admission import AdmissionController
    from repro.serving.batcher import MicroBatcher
    from repro.serving.server import PredictionServer

    for func in (
        codec.encode_request,
        codec.decode_request,
        codec.encode_response,
        codec.decode_response,
    ):
        rec.wrap_function(func, f"serving.requests.{func.__name__}")
    rec.wrap_method(AdmissionController, "admit", "serving.admission.admit")
    rec.wrap_method(
        MicroBatcher, "submit", "serving.batcher.submit", is_async=True
    )
    rec.wrap_method(
        PredictionServer, "submit_nowait", "serving.server.submit_nowait"
    )
    rec.wrap_method(
        PredictionServer, "submit", "serving.server.submit", is_async=True
    )
    rec.wrap_method(FastPredictor, "predict_fleet", "core.predict_fleet")


def _codec_probe(requests: Sequence[object]) -> Dict[str, float]:
    """Encode/decode cost of the workload's own requests over the JSON wire
    format (``json`` included: that is what crosses the socket)."""
    from repro.serving import requests as codec

    # The originals, should this run have wrapped them.
    encode_request = getattr(codec.encode_request, "__wrapped__", codec.encode_request)
    decode_request = getattr(codec.decode_request, "__wrapped__", codec.decode_request)
    t0 = time.perf_counter()
    texts = [json.dumps(encode_request(r)) for r in requests]
    encode_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for text in texts:
        decode_request(json.loads(text))
    decode_s = time.perf_counter() - t0
    n = len(requests)
    return {
        "serving.codec.encode_us": encode_s / n * 1e6,
        "serving.codec.decode_us": decode_s / n * 1e6,
        "serving.codec.bytes_per_request": sum(len(t) + 1 for t in texts) / n,
    }


def _server_layers(
    run: ServeRun, server, ledger: Ledger, cpu_share: float, hot: Dict[str, int]
) -> Dict[str, float]:
    """Layer rows read off an in-process ``PredictionServer``'s own
    counters (and ``HOT_PATH``) plus the recorder."""
    rec = run.recorder
    assert rec is not None
    batcher = server.batcher
    lookups = server.stats.cache_hits + server.stats.cache_misses
    waits = rec.latency_samples_ms("serving.batcher.submit")
    codec_names = [n for n in rec.names if n.startswith("serving.requests.")]
    return {
        "core.predict_fleet.calls": hot["batch_evals"],
        "core.predict_fleet.databases": hot["batch_databases"],
        "core.predict_fleet.busy_share": rec.busy_s("core.predict_fleet") / rec.wall_s,
        "serving.codec.calls": rec.count(*codec_names),
        "serving.admission.admitted": server.admission.admitted,
        "serving.admission.shed": server.admission.total_shed(),
        "serving.admission.queue_wait_ms_p50": median(ledger.queue_wait_ms),
        "serving.admission.max_depth": server.stats.max_depth,
        "serving.batcher.batches": batcher.batches,
        "serving.batcher.mean_batch_size": (
            batcher.batched_requests / batcher.batches if batcher.batches else 0.0
        ),
        "serving.batcher.wait_ms_p50": median(waits) if waits else 0.0,
        "serving.server.cache_hit_ratio": (
            server.stats.cache_hits / lookups if lookups else 0.0
        ),
        "serving.server.loop_cpu_share": cpu_share,
        "serving.latency_p99_ms": percentile(ledger.latencies_ms, 99),
        "tracing.unattributed_share": rec.unattributed_s / rec.wall_s,
        "harness.latency_samples": len(ledger.latencies_ms),
    }


def _end_to_end(
    setup_s: float,
    block_requests: int,
    block_walls: Sequence[float],
    latency_ledger: Ledger,
    children_kib: Sequence[int] = (),
) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "throughput_per_s": block_requests / median(block_walls),
        "latency_p50_ms": median(latency_ledger.latencies_ms),
        "qos_percent": 100.0 * latency_ledger.within_limit / latency_ledger.sent,
        "peak_rss_mib": peak_rss_mib(children_kib),
    }


# ---------------------------------------------------------------------------
# serve_burst and serve_tcp_pair (one in-process PredictionServer)
# ---------------------------------------------------------------------------


class _SingleServer:
    """A ``PredictionServer`` reached in process (``serve_burst``) or
    through ``serve_tcp`` on two connections (``serve_tcp_pair``)."""

    def __init__(self, opts, workload: str) -> None:
        self.opts = opts
        self.workload = workload
        self.over_tcp = workload == "serve_tcp_pair"
        if self.over_tcp:
            # Two lone clients, every request its own `now`: nothing can
            # batch, so codec + socket + the batcher's linger are the
            # whole latency.
            self.clients, self.limit_ms, self.stride = 2, 5.0, 4
            self.rounds = max(25, int(500 * opts.scale))
        else:
            # 64 clients in lock step share one `now` per round, so batches
            # fill; requests are anonymous (inline logins): no memo can hit.
            self.clients, self.limit_ms, self.stride = 64, 25.0, 16
            self.rounds = max(5, int(100 * opts.scale))
        self.n_databases = max(100, int(2_000 * opts.scale))
        self.fleets: List[Tuple[int, ...]] = []
        self.targets = np.empty(0, dtype=np.int64)
        self.server = None
        self.listener = None
        self.connections: List[TcpClient] = []

    # -- inputs ------------------------------------------------------------

    def generate(self) -> None:
        from repro.serving import fleet_login_arrays

        self.fleets = fleet_login_arrays(
            n_databases=self.n_databases, now=NOW0, seed=self.opts.seed
        )
        self.targets = np.random.default_rng([self.opts.seed, 11]).integers(
            0, len(self.fleets), size=1 << 20
        )

    def request(self, index: int):
        from repro.serving import PredictRequest

        round_ = index // self.clients
        return PredictRequest(
            request_id=f"q{index}",
            logins=self.fleets[int(self.targets[index % len(self.targets)])],
            now=NOW0 + 60 * (index if self.over_tcp else round_),
            tenant=f"client-{index % self.clients}",
        )

    def scripts(self, round0: int, rounds: int):
        """Client ``c``'s requests of rounds ``[round0, round0 + rounds)``;
        request index = round * clients + c."""
        return [
            [
                (index, self.request(index))
                for index in range(
                    round0 * self.clients + c,
                    (round0 + rounds) * self.clients,
                    self.clients,
                )
            ]
            for c in range(self.clients)
        ]

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        from repro.serving import PredictionServer, ServingSettings, serve_tcp

        self.server = PredictionServer(settings=ServingSettings())
        if not self.over_tcp:
            await self.server.start()
            return
        self.listener = await serve_tcp(self.server, port=0)
        port = self.listener.sockets[0].getsockname()[1]
        for _ in range(self.clients):
            connection = TcpClient()
            await connection.connect("127.0.0.1", port)
            self.connections.append(connection)

    async def stop(self) -> None:
        for connection in self.connections:
            await connection.close()
        self.connections = []
        if self.listener is not None:
            self.listener.close()
            await self.listener.wait_closed()
            self.listener = None
        if self.server is not None:
            await self.server.stop()
            self.server = None

    async def submit(self, request):
        if self.over_tcp:
            slot = int(request.request_id[1:]) % self.clients
            return await self.connections[slot].submit(request)
        return await self.server.submit(request)


async def _single_server_run(opts, workload: str) -> Dict[str, object]:
    from repro.config import DEFAULT_CONFIG
    from repro.core.fast_predictor import get_fast_predictor
    from repro.core.prediction_cache import HOT_PATH

    import_s = time.perf_counter() - PROCESS_START
    run = ServeRun(workload, opts)
    tier = _SingleServer(opts, workload)
    block_requests = tier.clients * tier.rounds
    #: Warm-up rounds live far above any measured round number.
    warm_round0 = 1 << 32
    setups: List[float] = []
    generates: List[float] = []
    warm = Ledger("warmup", tier.limit_ms, lambda _i: False)
    try:
        for _ in range(SETUP_REPEATS):
            await tier.stop()
            t0 = time.perf_counter()
            tier.generate()
            generates.append(time.perf_counter() - t0)
            await tier.start()
            await closed_loop_block(tier.submit, tier.scripts(warm_round0, 3), warm)
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + median(setups)

        ledger = run.ledger("closed", tier.limit_ms, tier.stride)

        async def block(b: int) -> float:
            prepared = tier.scripts(b * tier.rounds, tier.rounds)
            return await closed_loop_block(tier.submit, prepared, ledger)

        HOT_PATH.reset()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        reference, traced = await run.blocks(opts.seconds, block, _install_serving)
        cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
        hot = HOT_PATH.snapshot()
        server = tier.server
    finally:
        await tier.stop()

    verify_t0 = time.perf_counter()
    predictor = get_fast_predictor(DEFAULT_CONFIG)

    def expected(index: int) -> Sequence[object]:
        request = tier.request(index)
        return (predictor.predict(request.logins, request.now),)

    mismatches = _verify(ledger.kept, expected, opts.self_test == "corrupt")
    verify_s = time.perf_counter() - verify_t0
    run.absorb(ledger, mismatches)
    blocks = len(reference) + len(traced)
    run.check(
        warm.failed == 0 and ledger.sent == blocks * block_requests,
        "sent-request count does not match the block schedule",
    )

    out: Dict[str, object] = {
        "workload": workload,
        "attempted": run.attempted,
        "failed": run.failed,
        "notes": run.notes,
        "info": {
            "databases": len(tier.fleets),
            "clients": tier.clients,
            "block_requests": block_requests,
            "blocks": blocks,
            "latency_limit_ms": tier.limit_ms,
            "checked_answers": len(ledger.kept),
            "phases": {"closed": ledger.counts()},
        },
    }
    if run.recorder is None:
        out["metrics"] = _end_to_end(setup_s, block_requests, reference, ledger)
        return out
    layers = _server_layers(run, server, ledger, cpu_share, hot)
    layers.update(_codec_probe([tier.request(i) for i in range(2000)]))
    layers.update(
        {
            "workload.generate_s": median(generates),
            "workload.sessions": sum(len(f) for f in tier.fleets),
            "tracing.overhead_share": (median(traced) - median(reference))
            / median(reference),
            "harness.units": blocks,
            "harness.verify_ms": verify_s * 1e3,
        }
    )
    out["metrics"] = layers
    out["recorder"] = run.recorder
    return out


def run_serve_burst(opts) -> Dict[str, object]:
    return asyncio.run(_single_server_run(opts, "serve_burst"))


def run_serve_tcp_pair(opts) -> Dict[str, object]:
    return asyncio.run(_single_server_run(opts, "serve_tcp_pair"))


# ---------------------------------------------------------------------------
# serve_sharded_mixed (ShardRouter over 2 spawned workers)
# ---------------------------------------------------------------------------


class _ShardedTier:
    """Fleet, request schedule and write ledger of the sharded workload."""

    def __init__(self, opts, max_requests: int) -> None:
        self.opts = opts
        self.n_databases = max(160, int(4_000 * opts.scale))
        self.max_requests = max_requests
        self.router = None
        self.arena_build_s = 0.0
        self.spawn_s = 0.0
        self.scan_tasks: List[asyncio.Task] = []
        self.scans: List[object] = []
        self.scans_issued = 0

    def generate(self) -> None:
        from repro.serving import fleet_login_arrays

        opts = self.opts
        self.logins = fleet_login_arrays(
            n_databases=self.n_databases, now=NOW0, seed=opts.seed
        )
        n = len(self.logins)
        self.ids = [f"db-{i:05d}" for i in range(n)]
        self.regions = [f"R{i % SHARDED_REGIONS}" for i in range(n)]
        self.paused = [i % 2 == 0 for i in range(n)]
        rng = np.random.default_rng([opts.seed, 23])
        self.targets = rng.integers(0, n, size=self.max_requests)
        self.appends = rng.random(self.max_requests) < SHARDED_APPEND_SHARE
        # Arena slack from the write schedule: the most appends any one
        # database can receive if the whole schedule is consumed.  (The
        # default slack of 8 raises ConfigError after a few appends per
        # database -- see README.)
        per_db = np.bincount(self.targets[self.appends], minlength=n)
        self.slack = int(per_db.max()) + 1
        #: Effective appends per database, in arena order.
        self.appended: List[List[int]] = [[] for _ in range(n)]
        #: index -> (appends visible at send, at completion), kept requests.
        self.windows: Dict[int, Tuple[int, int]] = {}

    def fleet(self) -> Dict[str, list]:
        fleet: Dict[str, list] = {}
        for i, logins in enumerate(self.logins):
            fleet.setdefault(self.regions[i], []).append(
                (self.ids[i], logins, self.paused[i])
            )
        return fleet

    def now_of(self, index: int) -> int:
        return NOW0 + 60 * (index // SHARDED_NOW_GROUP)

    def request(self, index: int):
        from repro.serving import PredictRequest

        d = int(self.targets[index])
        return PredictRequest(
            request_id=f"q{index}",
            logins=(),
            now=self.now_of(index),
            region=self.regions[d],
            database_id=self.ids[d],
        )

    def scan_request(self, index: int):
        from repro.serving import ResumeScanRequest

        return ResumeScanRequest(
            request_id=f"scan{index}",
            now=self.now_of(index),
            region=f"R{(index // SHARDED_SCAN_EVERY) % SHARDED_REGIONS}",
        )

    async def start(self) -> None:
        from repro.serving.server import ServingSettings
        from repro.serving.sharded import RouterSettings, ShardRouter

        t0 = time.perf_counter()
        # Windows and queue bounds wide enough that the steady rate never
        # sheds: a refusal here would be a failed operation.
        self.router = ShardRouter.build(
            self.fleet(),
            n_workers=SHARDED_WORKERS,
            worker_settings=ServingSettings(max_queue_depth=4096),
            settings=RouterSettings(window=4096),
            slack=self.slack,
        )
        self.arena_build_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        await self.router.start()
        self.spawn_s = time.perf_counter() - t0

    async def stop(self) -> None:
        if self.router is not None:
            router, self.router = self.router, None
            await router.stop()

    def maybe_append(self, index: int) -> None:
        """The write that precedes ~10 % of predicts: one login for the
        request's database just before its ``now`` (never older than that
        database's newest login, whatever order clients run in)."""
        if not self.appends[index]:
            return
        d = int(self.targets[index])
        history = self.appended[d]
        newest = history[-1] if history else self.logins[d][-1]
        ts = max(self.now_of(index) - 1, newest)
        self.router.append_login(self.regions[d], self.ids[d], ts)
        if ts > newest:
            history.append(ts)

    async def fire(self, index: int, keep: Callable[[int], bool]):
        """Request ``index`` with whatever the schedule attaches to it: the
        write before it, and -- once per ``SHARDED_SCAN_EVERY`` -- an Alg. 5
        scan issued beside it (its own task: the predict is not held up)."""
        self.maybe_append(index)
        if (index + 1) % SHARDED_SCAN_EVERY == 0:
            self.scans_issued += 1
            self.scan_tasks.append(
                asyncio.get_running_loop().create_task(
                    self.router.submit(self.scan_request(index))
                )
            )
        d = int(self.targets[index])
        seen = len(self.appended[d])
        response = await self.router.submit(self.request(index))
        if keep(index):
            self.windows[index] = (seen, len(self.appended[d]))
        return response

    async def drain_scans(self) -> None:
        """Wait for the scans issued so far; their responses join
        ``self.scans``."""
        tasks, self.scan_tasks = self.scan_tasks, []
        self.scans.extend(await asyncio.gather(*tasks))


def _install_sharded(rec: Recorder) -> None:
    from repro.serving import requests as codec
    from repro.serving.sharded import ShardRouter
    from repro.serving.sharded.arena import SharedHistoryArena
    from repro.serving.sharded.hashring import HashRing

    for func in (codec.encode_request, codec.decode_response):
        rec.wrap_function(func, f"serving.requests.{func.__name__}")
    rec.wrap_method(HashRing, "candidates", "sharded.hashring.candidates")
    rec.wrap_method(
        SharedHistoryArena, "append_login", "sharded.arena.append_login"
    )
    rec.wrap_method(ShardRouter, "submit", "sharded.router.submit", is_async=True)


_BUCKET_RE = re.compile(r'^serving_latency_ms_bucket\{le="([^"]+)"\} (\d+)$', re.M)


def _histogram(text: str) -> List[Tuple[float, int]]:
    """``[(upper bound, cumulative count), ...]`` of the workers' merged
    ``serving.latency_ms`` histogram in an OpenMetrics scrape."""
    return [
        (float("inf") if le == "+Inf" else float(le), int(count))
        for le, count in _BUCKET_RE.findall(text)
    ]


def _histogram_p50(before, after) -> float:
    """Median of what was observed between two scrapes (upper bound of the
    bucket holding it; buckets are 15 % wide)."""
    start = dict(before)
    delta = [(le, count - start.get(le, 0)) for le, count in after]
    total = delta[-1][1] if delta else 0
    if total <= 0:
        return 0.0
    for le, cumulative in delta:
        if cumulative * 2 >= total:
            return le
    return 0.0


def _counter(text: str, name: str) -> float:
    match = re.search(rf"^{name}_total (\S+)$", text, re.M)
    return float(match.group(1)) if match else 0.0


async def _check_quiesced(run: ServeRun, tier: _ShardedTier, router, predictor, now: int) -> None:
    """With nothing in flight: one Alg. 5 scan per region must equal
    ``predict_fleet`` over the arena as it stands, and the arena must hold
    exactly the writes the harness made."""
    from repro.serving import ResumeScanRequest, ResumeScanResponse

    arena = router.arena
    for r in range(SHARDED_REGIONS):
        region = f"R{r}"
        scan = ResumeScanRequest(f"final-{region}", now=now, region=region)
        response = await router.submit(scan)
        paused = [
            i
            for i in range(len(tier.ids))
            if tier.regions[i] == region and tier.paused[i]
        ]
        predictions = predictor.predict_fleet(
            [arena.login_view(region, tier.ids[i]).copy() for i in paused], now
        )
        lo = now + scan.prewarm_s
        hi = lo + scan.period_s
        selected = tuple(
            tier.ids[i]
            for i, p in zip(paused, predictions)
            if not p.is_empty and lo <= p.start < hi
        )
        run.check(
            isinstance(response, ResumeScanResponse)
            and response.scanned == len(paused)
            and response.database_ids == selected,
            f"quiesced resume scan of {region} != predict_fleet over the arena",
        )
    run.check(
        all(
            arena.login_view(tier.regions[d], tier.ids[d])[
                len(tier.logins[d]) :
            ].tolist()
            == tier.appended[d]
            for d in range(len(tier.ids))
        ),
        "arena contents != the harness's write ledger",
    )


async def _router_layers(tier: _ShardedTier, router, rec: Recorder, scrape) -> Dict[str, float]:
    """Layer rows from the tier's own counters: ``RouterStats``, the health
    fan-out (workers' batcher/admission/cache sums) and the merged
    registry.  Workers cannot be wrapped from outside."""
    from repro.serving import HealthRequest

    health = (await router.submit(HealthRequest("final-health"))).stats
    shed = sum(v for k, v in health.items() if k.startswith("shed_"))
    text = await scrape()
    stats = router.stats
    by_worker = list(stats.by_worker.values())
    lookups = health.get("cache_hits", 0) + health.get("cache_misses", 0)
    batches = health.get("batches", 0)
    regions = [f"R{r}" for r in range(SHARDED_REGIONS)]
    t0 = time.perf_counter()
    for _ in range(200):
        for region in regions:
            router.ring.candidates(region, 2)
    lookup_us = (time.perf_counter() - t0) / (200 * len(regions)) * 1e6
    appends = rec.count("sharded.arena.append_login")
    return {
        "serving.admission.admitted": _counter(text, "serving_admitted"),
        "serving.admission.shed": shed,
        "serving.admission.max_depth": health.get("max_depth", 0),
        "serving.batcher.batches": batches,
        "serving.batcher.mean_batch_size": (
            health.get("batched_requests", 0) / batches if batches else 0.0
        ),
        "serving.server.cache_hit_ratio": (
            health.get("cache_hits", 0) / lookups if lookups else 0.0
        ),
        "sharded.hashring.lookup_us": lookup_us,
        "sharded.arena.build_ms": tier.arena_build_s * 1e3,
        "sharded.arena.nbytes": router.arena.nbytes(),
        "sharded.arena.append.calls": appends,
        "sharded.arena.append.us_per_call": (
            rec.busy_s("sharded.arena.append_login") / appends * 1e6
            if appends
            else 0.0
        ),
        "sharded.router.routed": stats.routed,
        "sharded.router.shed_overloaded": stats.shed_overloaded,
        "sharded.router.retries": stats.retries,
        "sharded.router.max_outstanding": stats.max_outstanding,
        "sharded.router.worker_skew": (
            max(by_worker) / (sum(by_worker) / len(by_worker)) if by_worker else 0.0
        ),
        "sharded.worker.spawn_ms": tier.spawn_s * 1e3,
    }


async def _sharded_run(opts) -> Dict[str, object]:
    from repro.config import DEFAULT_CONFIG
    from repro.core.fast_predictor import get_fast_predictor
    from repro.serving import MetricsRequest, ResumeScanResponse

    import_s = time.perf_counter() - PROCESS_START
    run = ServeRun("serve_sharded_mixed", opts)
    trace = run.recorder is not None
    # 50 ms from the due time: a predict queued behind an Alg. 5 scan of its
    # worker (~15 ms each) still makes it, one behind a stalled loop does not.
    clients, limit_ms, stride = 64, 50.0, 16
    rounds = max(5, int(40 * opts.scale))
    block_requests = clients * rounds
    steady_seconds = capacity_seconds = opts.seconds / 2.0
    n_steady = max(200, int(SHARDED_STEADY_RPS * steady_seconds))
    warm_requests = 3 * clients
    # Index space: [0, n_steady) steady, then warm-ups, then capacity
    # blocks; the schedule is cut for the fastest box we expect.
    capacity0 = n_steady + SETUP_REPEATS * warm_requests
    max_requests = capacity0 + int(40_000 * capacity_seconds) + 4 * block_requests
    tier = _ShardedTier(opts, max_requests)
    predictor = get_fast_predictor(DEFAULT_CONFIG)
    setups: List[float] = []
    generates: List[float] = []
    warm = Ledger("warmup", limit_ms, lambda _i: False)
    layers: Dict[str, float] = {}

    def scripts(index0: int, n_rounds: int):
        return [
            [
                (index, index)
                for index in range(index0 + c, index0 + n_rounds * clients, clients)
            ]
            for c in range(clients)
        ]

    async def closed(index0: int, n_rounds: int, ledger: Ledger) -> float:
        async def submit(index: int):
            return await tier.fire(index, ledger.keep)

        started = time.perf_counter()
        await closed_loop_block(submit, scripts(index0, n_rounds), ledger)
        await tier.drain_scans()
        return time.perf_counter() - started

    try:
        for k in range(SETUP_REPEATS):
            await tier.stop()
            t0 = time.perf_counter()
            tier.generate()
            generates.append(time.perf_counter() - t0)
            await tier.start()
            await closed(n_steady + k * warm_requests, 3, warm)
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + median(setups)
        router = tier.router
        worker_pids = [h.process.pid for h in router.handles.values()]

        async def scrape() -> str:
            return (await router.submit(MetricsRequest("scrape"))).body

        steady = run.ledger("steady", limit_ms, stride)
        capacity = run.ledger("capacity", limit_ms, stride)

        async def capacity_block(b: int) -> float:
            return await closed(capacity0 + b * block_requests, rounds, capacity)

        async def steady_phase() -> float:
            rng = np.random.default_rng([opts.seed, 29])
            due = np.cumsum(rng.exponential(1.0 / SHARDED_STEADY_RPS, n_steady))

            async def fire(index: int):
                return await tier.fire(index, steady.keep)

            wall = await open_loop(fire, due.tolist(), steady)
            await tier.drain_scans()
            return wall

        steady_wall = 0.0
        cpu0: Tuple[float, float, List[Optional[float]]] = (0.0, 0.0, [])

        async def traced_steady() -> None:
            # Traced runs: the steady phase goes between the untraced
            # reference blocks and the traced ones, so it sees the wrappers.
            nonlocal steady_wall, cpu0
            rec = run.recorder
            before = _histogram(await scrape())
            with rec.window("serve_sharded_mixed.steady"):
                steady_wall = await steady_phase()
            layers["sharded.wire_ms_p50"] = median(
                steady.latencies_ms
            ) - _histogram_p50(before, _histogram(await scrape()))
            cpu0 = (
                time.perf_counter(),
                time.process_time(),
                [process_cpu_s(pid) for pid in worker_pids],
            )

        if not trace:
            steady_wall = await steady_phase()
        reference, traced = await run.blocks(
            capacity_seconds, capacity_block, _install_sharded, traced_steady
        )
        if trace:
            # Who is busy while the tier is saturated: the router's loop or
            # the workers (the comparison ROADMAP item 2 turns on).
            wall = time.perf_counter() - cpu0[0]
            layers["sharded.router.cpu_share"] = (
                time.process_time() - cpu0[1]
            ) / wall
            worker_cpu = [
                after - before_
                for before_, after in zip(
                    cpu0[2], (process_cpu_s(pid) for pid in worker_pids)
                )
                if before_ is not None and after is not None
            ]
            layers["sharded.worker.cpu_share"] = (
                sum(worker_cpu) / (len(worker_cpu) * wall) if worker_cpu else 0.0
            )

        verify_t0 = time.perf_counter()
        await _check_quiesced(run, tier, router, predictor, tier.now_of(max_requests))
        verify_s = time.perf_counter() - verify_t0
        if trace:
            layers.update(await _router_layers(tier, router, run.recorder, scrape))
        worker_rss = [process_peak_rss_kib(pid) for pid in worker_pids]
    finally:
        await tier.stop()

    # -- out-of-band answers for the kept sample.  A response may reflect
    # any write that landed between its send and its completion.
    verify_t0 = time.perf_counter()

    def expected(index: int) -> Sequence[object]:
        d = int(tier.targets[index])
        seen, done = tier.windows[index]
        base = tier.logins[d]
        return [
            predictor.predict(base + tuple(tier.appended[d][:k]), tier.now_of(index))
            for k in range(seen, done + 1)
        ]

    corrupt = opts.self_test == "corrupt"
    run.absorb(steady, _verify(steady.kept, expected, corrupt))
    run.absorb(capacity, _verify(capacity.kept, expected, False))
    verify_s += time.perf_counter() - verify_t0
    blocks = len(reference) + len(traced)
    n_scans = tier.scans_issued
    run.attempted += n_scans
    scans = tier.scans
    bad_scans = sum(1 for s in scans if not isinstance(s, ResumeScanResponse))
    run.failed += bad_scans + abs(len(scans) - n_scans)
    if bad_scans or len(scans) != n_scans:
        run.notes.append(
            f"FAILED: {bad_scans} resume scans refused or errored, "
            f"{len(scans)} of {n_scans} answered"
        )
    run.check(
        warm.failed == 0
        and steady.sent == n_steady
        and capacity.sent == blocks * block_requests,
        "sent-request count does not match the schedule",
    )
    served = sum(
        (h.final_stats or {}).get("served", 0) for h in router.handles.values()
    )

    out: Dict[str, object] = {
        "workload": "serve_sharded_mixed",
        "attempted": run.attempted,
        "failed": run.failed,
        "notes": run.notes,
        "info": {
            "databases": len(tier.ids),
            "workers": SHARDED_WORKERS,
            "arena_slack": tier.slack,
            "steady_rps": SHARDED_STEADY_RPS,
            "steady_wall_s": steady_wall,
            "block_requests": block_requests,
            "blocks": blocks,
            "latency_limit_ms": limit_ms,
            "resume_scans": len(scans),
            "appends": sum(len(a) for a in tier.appended),
            "checked_answers": len(steady.kept) + len(capacity.kept),
            "phases": {
                "steady": steady.counts(),
                "capacity": capacity.counts(),
            },
        },
    }
    if not trace:
        out["metrics"] = _end_to_end(
            setup_s, block_requests, reference, steady, children_kib=worker_rss
        )
        return out
    rec = run.recorder
    codec_names = [n for n in rec.names if n.startswith("serving.requests.")]
    layers.update(_codec_probe([tier.request(i) for i in range(2000)]))
    layers.update(
        {
            "workload.generate_s": median(generates),
            "workload.sessions": sum(len(f) for f in tier.logins),
            "serving.codec.calls": rec.count(*codec_names),
            "serving.admission.queue_wait_ms_p50": median(steady.queue_wait_ms),
            "serving.latency_p99_ms": percentile(steady.latencies_ms, 99),
            "sharded.worker.served": served,
            "loadgen.late_ms_p99": percentile(steady.late_ms, 99),
            "tracing.overhead_share": (median(traced) - median(reference))
            / median(reference),
            "tracing.unattributed_share": rec.unattributed_s / rec.wall_s,
            "harness.units": blocks,
            "harness.latency_samples": len(steady.latencies_ms),
            "harness.verify_ms": verify_s * 1e3,
        }
    )
    out["metrics"] = layers
    out["recorder"] = rec
    return out


def run_serve_sharded_mixed(opts) -> Dict[str, object]:
    return asyncio.run(_sharded_run(opts))
