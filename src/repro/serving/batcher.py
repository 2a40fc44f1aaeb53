"""Dynamic micro-batching of prediction requests.

The same shape inference servers use: concurrent requests for the same
``(region, config, now)`` coalesce into one pending batch; the batch is
evaluated -- one :meth:`repro.core.fast_predictor.FastPredictor.
predict_fleet` call instead of N ``predict`` calls -- when any of three
triggers fires:

* **size**: the batch reached ``max_batch_size``;
* **linger**: ``max_linger_s`` elapsed since the batch opened (the upper
  bound a request can wait for co-batching under staggered arrivals);
* **idle hint**: the dispatch loop drained its queue, so no further
  co-batchable request is imminent -- flushing now trades nothing away
  (:meth:`MicroBatcher.flush_ready`).  This is what keeps closed-loop
  latency from paying the full linger on every round trip.

Each request holds an asyncio future resolved from the batch result, so
callers simply ``await submit(...)``.  Batching is a pure transport
optimisation: the equivalence property test proves the resolved values
are byte-identical to per-request ``FastPredictor.predict`` calls under
any interleaving of arrivals.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, Hashable, List, Sequence, Tuple, Union

from repro.errors import ConfigError
from repro.observability.metrics import LATENCY_BUCKETS_MS, SIZE_BUCKETS
from repro.observability.runtime import OBS
from repro.types import PredictedActivity

#: ``run_batch(key, fleet_logins, now) -> [PredictedActivity, ...]``: the
#: evaluation callback; the server wraps breaker/retry/faults around the
#: raw ``predict_fleet`` here.  A result entry may be an exception
#: instance, which is raised to that entry's request alone.
BatchFn = Callable[
    [Hashable, List[Sequence[int]], int],
    List[Union[PredictedActivity, Exception]],
]


class _PendingBatch:
    __slots__ = ("key", "now", "entries", "timer", "flushed", "opened_at")

    def __init__(self, key: Hashable, now: int, opened_at: float):
        self.key = key
        self.now = now
        self.entries: List[Tuple[Sequence[int], asyncio.Future]] = []
        self.timer: Any = None
        self.flushed = False
        self.opened_at = opened_at


class MicroBatcher:
    """Coalesces concurrent ``submit`` calls into ``run_batch`` calls.

    ``max_batch_size=1`` degenerates to per-request serving (the benchmark
    baseline).  ``immediate=True`` (set during server drain) flushes every
    submission synchronously so shutdown can never wait on a linger timer.
    """

    def __init__(
        self,
        run_batch: BatchFn,
        max_batch_size: int = 64,
        max_linger_s: float = 0.002,
    ):
        if max_batch_size < 1:
            raise ConfigError("max_batch_size must be at least 1")
        if max_linger_s < 0:
            raise ConfigError("max_linger_s must be non-negative")
        self._run_batch = run_batch
        self._max_batch_size = max_batch_size
        self._max_linger_s = max_linger_s
        self._pending: Dict[Hashable, _PendingBatch] = {}
        self.immediate = False
        #: Batches evaluated and requests they carried (always-on ints).
        self.batches = 0
        self.batched_requests = 0

    @property
    def pending_requests(self) -> int:
        return sum(len(b.entries) for b in self._pending.values())

    async def submit(
        self, key: Hashable, logins: Sequence[int], now: int
    ) -> Tuple[PredictedActivity, int]:
        """Join (or open) the pending batch for ``(key, now)`` and await
        this request's slot of the batch result.  Returns ``(prediction,
        batch_size)`` -- the size is how many requests shared the
        evaluation, surfaced in :class:`~repro.serving.requests.
        PredictResponse` and asserted by the batching tests."""
        loop = asyncio.get_running_loop()
        batch_key = (key, now)
        batch = self._pending.get(batch_key)
        if batch is None:
            batch = _PendingBatch(key, now, time.perf_counter())
            self._pending[batch_key] = batch
            if not self.immediate and self._max_batch_size > 1:
                batch.timer = loop.call_later(
                    self._max_linger_s, self._flush, batch
                )
        future: asyncio.Future = loop.create_future()
        batch.entries.append((logins, future))
        if self.immediate or len(batch.entries) >= self._max_batch_size:
            self._flush(batch)
        return await future

    def flush_ready(self) -> None:
        """Flush every pending batch now (the dispatch loop's idle hint)."""
        for batch in list(self._pending.values()):
            self._flush(batch)

    # Kept as an explicit alias: shutdown flushes everything, and reads
    # better at the call site than the idle hint it happens to equal.
    flush_all = flush_ready

    def _flush(self, batch: _PendingBatch) -> None:
        if batch.flushed:
            return
        batch.flushed = True
        if batch.timer is not None:
            batch.timer.cancel()
            batch.timer = None
        self._pending.pop((batch.key, batch.now), None)
        self.batches += 1
        self.batched_requests += len(batch.entries)
        if OBS.enabled:
            linger_ms = (time.perf_counter() - batch.opened_at) * 1000.0
            OBS.metrics.histogram(
                "serving.batch.size", buckets=SIZE_BUCKETS
            ).observe(len(batch.entries))
            OBS.metrics.histogram(
                "serving.batch.linger_ms", buckets=LATENCY_BUCKETS_MS
            ).observe(linger_ms)
            # Windowed view for the live dashboard: batches per second
            # and the per-window worst linger (exemplar = batch key).
            now = time.monotonic()
            OBS.metrics.counter_series(
                "serving.batch.window", window_s=1.0
            ).inc(now)
            OBS.metrics.histogram_series(
                "serving.batch.linger_ms.window",
                window_s=1.0,
                buckets=LATENCY_BUCKETS_MS,
            ).observe(now, linger_ms, exemplar=str(batch.key))
        fleet = [logins for logins, _ in batch.entries]
        try:
            results = self._run_batch(batch.key, fleet, batch.now)
            if len(results) != len(batch.entries):
                raise ConfigError(
                    f"batch of {len(batch.entries)} got "
                    f"{len(results)} results"
                )
        except BaseException as exc:  # noqa: BLE001 - forwarded to futures
            for _, future in batch.entries:
                if not future.done():
                    future.set_exception(exc)
            return
        size = len(batch.entries)
        for (_, future), prediction in zip(batch.entries, results):
            if future.done():
                continue
            if isinstance(prediction, Exception):
                future.set_exception(prediction)
            else:
                future.set_result((prediction, size))
