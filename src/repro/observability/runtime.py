"""The process-global observability switch.

Instrumented hot paths do::

    from repro.observability.runtime import OBS

    if OBS.enabled:
        OBS.metrics.counter("engine.events_dispatched").inc()

``OBS`` is a singleton whose identity never changes -- modules bind it at
import time and the disabled cost is one attribute load plus a falsy
check.  ``enable``/``disable`` (or the :func:`observed` context manager)
swap the tracer and registry behind it.

The switch is per process.  ``repro.parallel`` workers start disabled and
are enabled per chunk by the pool plumbing when the parent was enabled at
submit time; their registries ride back with the chunk results and are
merged into the parent registry in submission order.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import NULL_TRACER, NullTracer, Tracer


class _Runtime:
    """The mutable singleton behind ``OBS``."""

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer: Union[Tracer, NullTracer] = NULL_TRACER
        self.metrics: Optional[MetricsRegistry] = None


OBS = _Runtime()


def enable(
    tracer: Optional[Union[Tracer, NullTracer]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> _Runtime:
    """Turn instrumentation on; returns the runtime for export access.

    Pass ``tracer=NULL_TRACER`` to collect metrics without span records
    (fleet-scale runs where per-event spans would dominate memory).
    """
    OBS.tracer = Tracer() if tracer is None else tracer
    OBS.metrics = MetricsRegistry() if metrics is None else metrics
    OBS.enabled = True
    return OBS


def disable() -> None:
    """Back to the zero-overhead default."""
    OBS.enabled = False
    OBS.tracer = NULL_TRACER
    OBS.metrics = None


@contextmanager
def observed(
    tracer: Optional[Union[Tracer, NullTracer]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Iterator[_Runtime]:
    """Enable observability for one block, restoring the prior state."""
    previous = (OBS.enabled, OBS.tracer, OBS.metrics)
    try:
        yield enable(tracer=tracer, metrics=metrics)
    finally:
        OBS.enabled, OBS.tracer, OBS.metrics = previous
