"""Parallel sweep execution for training and experiment drivers.

The paper's Section 8 pipeline re-tunes the ProRP knobs per region over
hundreds of thousands of databases every month -- an embarrassingly
parallel fan-out of independent candidate evaluations.  This package
provides the execution layer for that fan-out:

* :mod:`repro.parallel.base` -- the :class:`SweepExecutor` interface,
  per-run :class:`SweepStats`, and the ``chunked`` /
  ``merge_ordered`` primitives;
* :mod:`repro.parallel.serial` -- the deterministic in-process reference
  backend (the default);
* :mod:`repro.parallel.multiprocess` -- a process-pool backend that ships
  the shared fleet to each worker once and merges results back in
  submission order, so reports are byte-identical to the serial run.

``resolve_executor`` is the single entry point call sites use to turn
``executor=`` / ``workers=`` parameters into a backend, degrading to
serial when the pool machinery is unavailable.
"""

from __future__ import annotations

import warnings
from typing import Optional

from repro.parallel.base import (
    SweepExecutor,
    SweepStats,
    TaskRecord,
    chunked,
    merge_ordered,
)
from repro.parallel.serial import SerialExecutor

__all__ = [
    "SweepExecutor",
    "SweepStats",
    "TaskRecord",
    "SerialExecutor",
    "MultiprocessExecutor",
    "chunked",
    "merge_ordered",
    "resolve_executor",
]


def resolve_executor(
    executor: Optional[SweepExecutor] = None, workers: Optional[int] = None
) -> SweepExecutor:
    """Pick the sweep backend for an ``executor=`` / ``workers=`` pair.

    An explicit ``executor`` wins.  ``workers > 1`` requests the
    multiprocess backend; if that backend cannot be imported (stripped
    stdlib, restricted platform) the sweep degrades to serial with a
    warning rather than failing.  Everything else -- ``workers`` of
    ``None``, 0, or 1 -- is the deterministic serial default.
    """
    if executor is not None:
        return executor
    if workers is not None and workers > 1:
        try:
            from repro.parallel.multiprocess import MultiprocessExecutor

            return MultiprocessExecutor(workers=workers)
        except ImportError as exc:  # pragma: no cover - platform-dependent
            warnings.warn(
                f"multiprocess sweep backend unavailable ({exc}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
    return SerialExecutor()


def __getattr__(name: str):
    # Import the pool backend lazily so ``import repro.parallel`` works
    # even where multiprocessing primitives are unavailable.
    if name == "MultiprocessExecutor":
        from repro.parallel.multiprocess import MultiprocessExecutor

        return MultiprocessExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
