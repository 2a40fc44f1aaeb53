"""Dynamic micro-batching of prediction requests.

The same shape inference servers use: concurrent requests for the same
config coalesce into one pending batch, each entry carrying its own
``now``; the batch is evaluated -- one :meth:`repro.core.fast_predictor.
FastPredictor.predict_fleet` call instead of N ``predict`` calls -- when
it reaches ``max_batch_size`` or when the event-loop turn that opened it
ends, whichever comes first.

The end of the turn is enough: ``asyncio.Queue.get`` does not yield
while the queue is non-empty, so the server's dispatch loop drains a
whole burst in one turn and every handler task it created runs in the
next one -- before the flush callback the first of them scheduled.  No
timer is needed and no request ever waits for a co-batcher that is not
already runnable.

Each request holds an asyncio future resolved from the batch result, so
callers simply ``await submit(...)``.  Batching is a pure transport
optimisation: the equivalence property test proves the resolved values
are byte-identical to per-request ``FastPredictor.predict`` calls under
any interleaving of arrivals.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, Hashable, List, Sequence, Tuple, Union

from repro.errors import ConfigError
from repro.observability.metrics import LATENCY_BUCKETS_MS, SIZE_BUCKETS
from repro.observability.runtime import OBS
from repro.types import PredictedActivity

#: ``run_batch(key, fleet_logins, nows) -> [PredictedActivity, ...]``: the
#: evaluation callback, one ``now`` per entry; the server wraps
#: breaker/retry/faults around the raw ``predict_fleet`` here.  A result
#: entry may be an exception instance, which is raised to that entry's
#: request alone.
BatchFn = Callable[
    [Hashable, List[Sequence[int]], List[int]],
    List[Union[PredictedActivity, Exception]],
]


class _PendingBatch:
    __slots__ = ("key", "entries", "flushed", "opened_at")

    def __init__(self, key: Hashable, opened_at: float):
        self.key = key
        self.entries: List[Tuple[Sequence[int], int, asyncio.Future]] = []
        self.flushed = False
        self.opened_at = opened_at


class MicroBatcher:
    """Coalesces concurrent ``submit`` calls into ``run_batch`` calls.

    ``max_batch_size=1`` degenerates to per-request serving (the benchmark
    baseline).
    """

    def __init__(self, run_batch: BatchFn, max_batch_size: int = 64):
        if max_batch_size < 1:
            raise ConfigError("max_batch_size must be at least 1")
        self._run_batch = run_batch
        self._max_batch_size = max_batch_size
        self._pending: Dict[Hashable, _PendingBatch] = {}
        #: Batches evaluated and requests they carried (always-on ints).
        self.batches = 0
        self.batched_requests = 0

    @property
    def pending_requests(self) -> int:
        return sum(len(b.entries) for b in self._pending.values())

    async def submit(
        self, key: Hashable, logins: Sequence[int], now: int
    ) -> Tuple[PredictedActivity, int]:
        """Join (or open) the pending batch for ``key`` and await this
        request's slot of the batch result, evaluated at its own ``now``.
        Returns ``(prediction, batch_size)`` -- the size is how many
        requests shared the evaluation, surfaced in :class:`~repro.serving.
        requests.PredictResponse` and asserted by the batching tests."""
        loop = asyncio.get_running_loop()
        batch = self._pending.get(key)
        if batch is None:
            batch = _PendingBatch(key, time.perf_counter())
            self._pending[key] = batch
            loop.call_soon(self._flush, batch)
        future: asyncio.Future = loop.create_future()
        batch.entries.append((logins, now, future))
        if len(batch.entries) >= self._max_batch_size:
            self._flush(batch)
        return await future

    def note_batch(self, size: int) -> None:
        """Count one kernel call that answered ``size`` predicts, whether
        this batcher made it or the server's by-id frame path did."""
        self.batches += 1
        self.batched_requests += size
        if OBS.enabled:
            OBS.metrics.histogram(
                "serving.batch.size", buckets=SIZE_BUCKETS
            ).observe(size)

    def _flush(self, batch: _PendingBatch) -> None:
        if batch.flushed:
            return
        batch.flushed = True
        self._pending.pop(batch.key, None)
        self.note_batch(len(batch.entries))
        if OBS.enabled:
            linger_ms = (time.perf_counter() - batch.opened_at) * 1000.0
            OBS.metrics.histogram(
                "serving.batch.linger_ms", buckets=LATENCY_BUCKETS_MS
            ).observe(linger_ms)
            # ``linger`` is the batch's open-to-flush time.  Windowed view
            # for the live dashboard: batches per second and the
            # per-window worst linger (exemplar = batch key).
            now = time.monotonic()
            OBS.metrics.counter_series(
                "serving.batch.window", window_s=1.0
            ).inc(now)
            OBS.metrics.histogram_series(
                "serving.batch.linger_ms.window",
                window_s=1.0,
                buckets=LATENCY_BUCKETS_MS,
            ).observe(now, linger_ms, exemplar=str(batch.key))
        fleet = [logins for logins, _, _ in batch.entries]
        nows = [now for _, now, _ in batch.entries]
        try:
            results = self._run_batch(batch.key, fleet, nows)
            if len(results) != len(batch.entries):
                raise ConfigError(
                    f"batch of {len(batch.entries)} got "
                    f"{len(results)} results"
                )
        except BaseException as exc:  # noqa: BLE001 - forwarded to futures
            for _, _, future in batch.entries:
                if not future.done():
                    future.set_exception(exc)
            return
        size = len(batch.entries)
        for (_, _, future), prediction in zip(batch.entries, results):
            if future.done():
                continue
            if isinstance(prediction, Exception):
                future.set_exception(prediction)
            else:
                future.set_result((prediction, size))
