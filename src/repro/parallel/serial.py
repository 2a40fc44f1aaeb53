"""The deterministic in-process sweep backend (the default)."""

from __future__ import annotations

import time
from typing import Any, List, Sequence

from repro.parallel.base import SweepExecutor, SweepStats, SweepWorker, TaskRecord


class SerialExecutor(SweepExecutor):
    """Evaluate every task in submission order on the calling thread.

    This is the reference behaviour every other backend must reproduce
    bit-for-bit; it is also the fallback when a parallel backend is
    unavailable or degrades.
    """

    name = "serial"

    def run(
        self, worker: SweepWorker, context: Any, items: Sequence[Any]
    ) -> List[Any]:
        items = list(items)
        stats = SweepStats(
            backend=self.name, workers=1, tasks_queued=len(items), n_chunks=1
        )
        results: List[Any] = []
        run_start = time.perf_counter()
        for index, item in enumerate(items):
            task_start = time.perf_counter()
            results.append(worker(context, item))
            wall = time.perf_counter() - task_start
            stats.tasks.append(TaskRecord(index=index, wall_s=wall, worker="serial"))
            stats.tasks_completed += 1
        stats.wall_s = time.perf_counter() - run_start
        self.last_stats = stats
        return results
