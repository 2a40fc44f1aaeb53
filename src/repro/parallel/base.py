"""Sweep execution primitives shared by every backend.

A *sweep* is the canonical offline workload of the paper's Section 8
training pipeline: evaluate many independent candidate configurations
against one shared fleet of traces.  Each candidate is a *task*; a
:class:`SweepExecutor` maps a picklable ``worker(context, item)`` function
over the task items and returns the results **in submission order**, so a
sweep report is byte-identical no matter which backend (or worker count)
produced it.

The ``context`` argument carries the state shared by every task (the
fleet traces, the simulation settings).  Backends are expected to ship it
to each worker exactly once -- see
:class:`repro.parallel.multiprocess.MultiprocessExecutor` -- never once
per task.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, TypeVar

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: A sweep task body: ``worker(context, item) -> result``.  Backends that
#: cross a process boundary require it to be a module-level function.
SweepWorker = Callable[[Any, Any], Any]


@dataclass(frozen=True)
class TaskRecord:
    """Telemetry of one completed sweep task."""

    index: int
    wall_s: float
    worker: str


@dataclass
class SweepStats:
    """Telemetry of one executor run (tasks queued/completed, wall time)."""

    backend: str
    workers: int
    tasks_queued: int = 0
    tasks_completed: int = 0
    n_chunks: int = 0
    wall_s: float = 0.0
    tasks: List[TaskRecord] = field(default_factory=list)
    fallback_reason: Optional[str] = None


class SweepExecutor(abc.ABC):
    """Maps a worker function over sweep items, preserving item order.

    ``run`` is synchronous and returns one result per item; ``last_stats``
    holds the :class:`SweepStats` of the most recent run.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.last_stats: Optional[SweepStats] = None

    @abc.abstractmethod
    def run(
        self, worker: SweepWorker, context: Any, items: Sequence[Any]
    ) -> List[Any]:
        """Evaluate ``worker(context, item)`` for every item, in order."""


def chunked(items: Sequence[ItemT], size: int) -> List[List[ItemT]]:
    """Split ``items`` into consecutive chunks of at most ``size``.

    The last chunk may be shorter; every item appears exactly once and
    concatenating the chunks reproduces the input order.
    """
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


def merge_ordered(
    indexed_results: Sequence[tuple], n_items: int
) -> List[Any]:
    """Reassemble ``(index, result)`` pairs into submission order.

    Backends that execute chunks concurrently collect results in
    completion order; this restores the order the items were submitted
    in and verifies the sweep is complete (every index exactly once).
    """
    slots: List[Any] = [_MISSING] * n_items
    for index, result in indexed_results:
        if not 0 <= index < n_items:
            raise ValueError(f"task index {index} outside sweep of {n_items}")
        if slots[index] is not _MISSING:
            raise ValueError(f"task index {index} produced two results")
        slots[index] = result
    missing = [i for i, slot in enumerate(slots) if slot is _MISSING]
    if missing:
        raise ValueError(f"sweep incomplete: no result for tasks {missing}")
    return slots


class _Missing:
    """Sentinel distinguishing 'no result yet' from a None result."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()
