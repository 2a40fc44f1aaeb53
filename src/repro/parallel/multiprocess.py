"""The process-pool sweep backend.

Candidate evaluations are CPU-bound pure functions of (shared context,
item), so the fan-out is embarrassingly parallel.  The expensive shared
state -- the fleet traces and simulation settings -- is serialized **once
per worker** through the pool initializer and cached in a module-level
global, not pickled per task; tasks themselves are tiny (a config or a
knob value).  Items are submitted in chunks to amortise IPC, and results
are merged back in submission order so the sweep output is byte-identical
to the serial backend regardless of worker count or scheduling.

If the pool breaks (a worker crashed, the platform cannot fork/spawn, a
payload fails to pickle), the run degrades gracefully: the whole sweep is
re-evaluated with :class:`repro.parallel.serial.SerialExecutor` and the
reason is recorded in ``last_stats.fallback_reason``.  Exceptions *raised
by the worker function itself* are not swallowed -- they would fail
serially too, and re-raising keeps bugs visible.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, ContextManager, List, Optional, Sequence, Tuple

from repro.observability.metrics import MetricsRegistry
from repro.observability.runtime import OBS, observed
from repro.observability.tracer import NULL_TRACER
from repro.parallel.base import (
    SweepExecutor,
    SweepStats,
    SweepWorker,
    TaskRecord,
    chunked,
    merge_ordered,
)
from repro.parallel.serial import SerialExecutor

#: Set by the pool initializer inside worker processes; the parent process
#: never flips these.  One (worker, context) pair is cached per process for
#: the lifetime of the pool -- the "serialize once per worker" design.
_WORKER_FN: Optional[SweepWorker] = None
_WORKER_CONTEXT: Any = None
_IN_WORKER = False
_WORKER_OBSERVE = False

#: Exceptions that mean "the parallel infrastructure failed", as opposed to
#: "the task itself is buggy".  Only these trigger the serial fallback.
#: AttributeError / TypeError are what pickle actually raises for
#: local functions and unpicklable payloads; if one instead escapes from a
#: buggy task, the serial rerun reproduces it in the caller's process, so
#: the error still surfaces -- just without the pool in the traceback.
_INFRASTRUCTURE_ERRORS = (
    BrokenProcessPool,
    pickle.PicklingError,
    AttributeError,
    TypeError,
    ImportError,
    OSError,
)


def _init_worker(worker: SweepWorker, context: Any, observe: bool = False) -> None:
    """Pool initializer: cache the shared sweep state in this process."""
    global _WORKER_FN, _WORKER_CONTEXT, _IN_WORKER, _WORKER_OBSERVE
    _WORKER_FN = worker
    _WORKER_CONTEXT = context
    _IN_WORKER = True
    _WORKER_OBSERVE = observe


def _run_chunk(
    chunk: Sequence[Tuple[int, Any]]
) -> Tuple[List[Tuple[int, Any, float, int]], Optional[MetricsRegistry]]:
    """Evaluate one chunk of (index, item) pairs against the cached state.

    When the parent process had observability enabled at submit time, each
    chunk runs under a fresh metrics-only registry (spans stay local: a
    worker's tracer stack is meaningless to the parent) which rides back
    with the results and is merged parent-side in submission order.
    """
    out: List[Tuple[int, Any, float, int]] = []
    pid = os.getpid()
    registry: Optional[MetricsRegistry] = None
    scope: ContextManager[Any] = contextlib.nullcontext()
    if _WORKER_OBSERVE:
        registry = MetricsRegistry()
        scope = observed(tracer=NULL_TRACER, metrics=registry)
    with scope:
        for index, item in chunk:
            start = time.perf_counter()
            result = _WORKER_FN(_WORKER_CONTEXT, item)
            out.append((index, result, time.perf_counter() - start, pid))
    return out, registry


class MultiprocessExecutor(SweepExecutor):
    """Fan sweep tasks out to a :class:`~concurrent.futures.ProcessPoolExecutor`.

    ``workers`` bounds the pool size (it is further capped by the number
    of chunks).  ``chunk_size`` tasks ride in one IPC round-trip; the
    default splits the sweep into about four chunks per worker, which
    keeps the pool busy near the tail without flooding the queue.
    """

    name = "multiprocess"

    def __init__(
        self,
        workers: int = 2,
        chunk_size: Optional[int] = None,
        fallback: bool = True,
        start_method: Optional[str] = None,
    ):
        super().__init__()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self.fallback = fallback
        #: ``fork`` (the Linux default) shares the parent's memory image
        #: and skips re-pickling the worker function; ``spawn`` gives the
        #: cross-platform behaviour where everything must pickle.  None
        #: keeps the platform default.
        self.start_method = start_method

    def _resolve_chunk_size(self, n_items: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, n_items // (self.workers * 4))

    def run(
        self, worker: SweepWorker, context: Any, items: Sequence[Any]
    ) -> List[Any]:
        items = list(items)
        if len(items) <= 1 or self.workers == 1:
            # A pool buys nothing for a degenerate sweep.
            return self._run_serial(worker, context, items, reason=None)
        try:
            return self._run_pool(worker, context, items)
        except _INFRASTRUCTURE_ERRORS as exc:
            if not self.fallback:
                raise
            reason = f"{type(exc).__name__}: {exc}"
            warnings.warn(
                f"parallel sweep degraded to serial execution ({reason})",
                RuntimeWarning,
                stacklevel=2,
            )
            return self._run_serial(worker, context, items, reason=reason)

    def _run_pool(
        self, worker: SweepWorker, context: Any, items: Sequence[Any]
    ) -> List[Any]:
        chunks = chunked(list(enumerate(items)), self._resolve_chunk_size(len(items)))
        stats = SweepStats(
            backend=self.name,
            workers=min(self.workers, len(chunks)),
            tasks_queued=len(items),
            n_chunks=len(chunks),
        )
        run_start = time.perf_counter()
        indexed: List[Tuple[int, Any]] = []
        mp_context = (
            multiprocessing.get_context(self.start_method)
            if self.start_method is not None
            else None
        )
        observe = OBS.enabled
        with ProcessPoolExecutor(
            max_workers=stats.workers,
            mp_context=mp_context,
            initializer=_init_worker,
            initargs=(worker, context, observe),
        ) as pool:
            futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
            # Iterating futures (not as_completed) keeps both the results
            # and the per-chunk registry merges in submission order, so
            # merged metrics are identical regardless of scheduling.
            for future in futures:
                records, registry = future.result()
                for index, result, wall, pid in records:
                    indexed.append((index, result))
                    stats.tasks.append(
                        TaskRecord(index=index, wall_s=wall, worker=f"pid:{pid}")
                    )
                    stats.tasks_completed += 1
                if registry is not None and OBS.enabled:
                    OBS.metrics.merge(registry)
        results = merge_ordered(indexed, len(items))
        stats.wall_s = time.perf_counter() - run_start
        stats.tasks.sort(key=lambda record: record.index)
        self.last_stats = stats
        return results

    def _run_serial(
        self,
        worker: SweepWorker,
        context: Any,
        items: Sequence[Any],
        reason: Optional[str],
    ) -> List[Any]:
        serial = SerialExecutor()
        results = serial.run(worker, context, items)
        stats = serial.last_stats
        stats.backend = self.name
        stats.fallback_reason = reason
        self.last_stats = stats
        return results
