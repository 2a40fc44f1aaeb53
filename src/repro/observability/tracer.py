"""Nested-span tracing for the live ProRP code paths.

A :class:`Tracer` produces :class:`SpanRecord`\\ s: named, wall-clock-timed
intervals with attributes and a parent link.  The simulation is single
threaded, so trace context propagation is a plain stack -- a span opened
by the engine's event dispatch is the parent of every span opened by the
policy, predictor, resume scan, or SQL engine while that event runs.

Spans carry two clocks: wall time (``perf_counter_ns`` relative to the
tracer's epoch, what Chrome's trace viewer renders) and, when the caller
provides a ``t`` attribute, the simulation timestamp the work happened at.

The :data:`NULL_TRACER` is the off-by-default stand-in: its ``span`` call
returns a shared, do-nothing context manager, so instrumentation left in
place costs one guard check plus nothing.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    #: Nanoseconds since the tracer's epoch.
    start_ns: int
    duration_ns: int
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "attributes": self.attributes,
        }


class _ActiveSpan:
    """Context manager for one open span."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "attributes", "_start_ns")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        attributes: Dict[str, Any],
    ):
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes = attributes
        self._start_ns = 0

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def __enter__(self) -> "_ActiveSpan":
        self._start_ns = time.perf_counter_ns() - self._tracer.epoch_ns
        self._tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end_ns = time.perf_counter_ns() - self._tracer.epoch_ns
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        popped = self._tracer._stack.pop()
        assert popped is self, "span stack corrupted (overlapping exits)"
        self._tracer.spans.append(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start_ns=self._start_ns,
                duration_ns=max(0, end_ns - self._start_ns),
                attributes=self.attributes,
            )
        )


class Tracer:
    """Collects finished spans (in completion order: children first)."""

    def __init__(self) -> None:
        self.epoch_ns = time.perf_counter_ns()
        self.spans: List[SpanRecord] = []
        self._stack: List[_ActiveSpan] = []
        self._ids = itertools.count(1)

    def span(self, name: str, **attributes: Any) -> _ActiveSpan:
        """Open a child of the current span (root when the stack is empty)."""
        parent = self._stack[-1].span_id if self._stack else None
        return _ActiveSpan(self, next(self._ids), parent, name, attributes)

    @property
    def current_span(self) -> Optional[_ActiveSpan]:
        return self._stack[-1] if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    def roots(self) -> List[SpanRecord]:
        """Finished spans with no parent."""
        return [s for s in self.spans if s.parent_id is None]


class _NullSpan:
    """The do-nothing span: shared, reentrant, attribute-free."""

    __slots__ = ()

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every ``span()`` is the same no-op."""

    __slots__ = ()
    spans: List[SpanRecord] = []
    current_span = None
    depth = 0

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def roots(self) -> List[SpanRecord]:
        return []


NULL_TRACER = NullTracer()
