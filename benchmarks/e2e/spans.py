"""Span recording from outside the program.

The harness wraps the program's public callables (class attributes and
module functions) at run time; nothing under ``src/`` is edited.  Two
kinds of wrapper:

* **sync** -- busy time.  A frame stack attributes each call's duration
  to its own name and subtracts it from the enclosing frame, so *self
  time = span minus children* and the self times of every name plus the
  root's own remainder add up to the traced wall time exactly.
* **async** -- waiting time.  A coroutine's span covers its awaits, so it
  is a latency sample, not CPU; it never enters the frame stack and is
  reported as a count plus a latency distribution.

The first ``SPAN_CAP`` calls of each name are kept as individual spans
(name, start, end, parent, request id) and written as Chrome-trace JSON;
every call, kept or not, lands in the per-name (count, busy ns, self ns)
totals.  Hot callables therefore cost two clock reads and a few integer
adds per call, and memory stays bounded.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Individual spans kept per name; calls beyond it only accumulate.
SPAN_CAP = 10_000

_now = time.perf_counter_ns

#: Innermost *async* span of the running task (tasks inherit it at
#: creation), so a sync span recorded inside a coroutine still has a parent.
_ASYNC_PARENT: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_async_parent", default=0
)


def _request_id(args: Tuple[Any, ...]) -> Optional[str]:
    """The ``request_id`` of the first argument that carries one."""
    for arg in args[:2]:
        rid = getattr(arg, "request_id", None)
        if isinstance(rid, str):
            return rid
    return None


class Recorder:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.index: Dict[str, int] = {}
        self.counts: List[int] = []
        self.busy_ns: List[int] = []
        self.self_ns: List[int] = []
        #: Latency samples (ns) of async names; None for sync names.
        self.samples: List[Optional[array]] = []
        #: Frame stack of the running sync call chain: [child_ns, span_id].
        self.stack: List[List[int]] = []
        #: Kept spans: (name index, start ns, duration ns, span id,
        #: parent id, request id).
        self.spans: List[Tuple[int, int, int, int, int, Optional[str]]] = []
        self._next_id = 1
        self.enabled = False
        self._root: Optional[List[int]] = None
        self._root_start = 0
        #: Completed root windows: (label, start ns, wall ns, self ns).
        self.roots: List[Tuple[str, int, int, int]] = []

    # -- names -------------------------------------------------------------

    def _slot(self, name: str, is_async: bool) -> int:
        idx = self.index.get(name)
        if idx is None:
            idx = len(self.names)
            self.index[name] = idx
            self.names.append(name)
            self.counts.append(0)
            self.busy_ns.append(0)
            self.self_ns.append(0)
            self.samples.append(array("q") if is_async else None)
        return idx

    # -- root window -------------------------------------------------------

    def begin(self, label: str) -> None:
        """Open the root span of a timed window; wrappers record only
        while one is open."""
        self._root = [0, self._new_id()]
        self._root_label = label
        self.stack.append(self._root)
        self.enabled = True
        self._root_start = _now()

    def end(self) -> None:
        wall = _now() - self._root_start
        self.enabled = False
        root = self.stack.pop()
        assert root is self._root and not self.stack, "unbalanced span stack"
        self.roots.append(
            (self._root_label, self._root_start, wall, wall - root[0])
        )
        self._root = None

    @contextlib.contextmanager
    def window(self, label: str):
        """``begin`` / ``end`` around one timed window."""
        self.begin(label)
        try:
            yield
        finally:
            self.end()

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id = sid + 1
        return sid

    # -- wrappers ----------------------------------------------------------

    def sync(self, name: str, func: Callable) -> Callable:
        idx = self._slot(name, is_async=False)
        counts, busy, selfs = self.counts, self.busy_ns, self.self_ns
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            keep = counts[idx] < SPAN_CAP
            frame = [0, self._new_id() if keep else 0]
            parent = stack[-1]
            stack.append(frame)
            start = _now()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = _now() - start
                stack.pop()
                counts[idx] += 1
                busy[idx] += elapsed
                selfs[idx] += elapsed - frame[0]
                parent[0] += elapsed
                if keep:
                    spans.append(
                        (
                            idx,
                            start,
                            elapsed,
                            frame[1],
                            parent[1] or _ASYNC_PARENT.get(),
                            _request_id(args),
                        )
                    )

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def coroutine(self, name: str, func: Callable) -> Callable:
        idx = self._slot(name, is_async=True)
        counts, busy, spans = self.counts, self.busy_ns, self.spans
        samples = self.samples[idx]

        async def wrapper(*args, **kwargs):
            if not self.enabled:
                return await func(*args, **kwargs)
            keep = counts[idx] < SPAN_CAP
            sid = self._new_id() if keep else 0
            parent = _ASYNC_PARENT.get()
            token = _ASYNC_PARENT.set(sid) if keep else None
            start = _now()
            try:
                return await func(*args, **kwargs)
            finally:
                elapsed = _now() - start
                if token is not None:
                    _ASYNC_PARENT.reset(token)
                counts[idx] += 1
                busy[idx] += elapsed
                samples.append(elapsed)
                if keep:
                    spans.append(
                        (idx, start, elapsed, sid, parent, _request_id(args))
                    )

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # -- installation ------------------------------------------------------

    def wrap_method(self, cls: type, attr: str, name: str, is_async=False) -> None:
        """Replace ``cls.attr`` with a recording wrapper (every instance,
        existing or future, goes through it)."""
        func = cls.__dict__[attr]
        make = self.coroutine if is_async else self.sync
        setattr(cls, attr, make(name, func))

    def wrap_function(self, func: Callable, name: str, prefix: str = "repro") -> None:
        """Replace a module-level function everywhere it is bound: modules
        that did ``from x import f`` hold their own reference, so every
        loaded ``repro`` module is scanned for the same object."""
        wrapped = self.sync(name, func)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapped)

    # -- reading -----------------------------------------------------------

    def count(self, *names: str) -> int:
        return sum(
            self.counts[self.index[n]] for n in names if n in self.index
        )

    def busy_s(self, *names: str) -> float:
        return sum(
            self.busy_ns[self.index[n]] for n in names if n in self.index
        ) / 1e9

    def self_s(self, *names: str) -> float:
        return sum(
            self.self_ns[self.index[n]] for n in names if n in self.index
        ) / 1e9

    def latency_samples_ms(self, name: str) -> List[float]:
        idx = self.index.get(name)
        if idx is None or self.samples[idx] is None:
            return []
        return [ns / 1e6 for ns in self.samples[idx]]

    @property
    def wall_s(self) -> float:
        return sum(wall for _, _, wall, _ in self.roots) / 1e9

    @property
    def unattributed_s(self) -> float:
        return sum(own for _, _, _, own in self.roots) / 1e9

    def table(self) -> List[Dict[str, object]]:
        """One row per name; the ``self_s`` column plus the root's
        unattributed remainder sums to the traced wall time."""
        rows = []
        for idx, name in enumerate(self.names):
            if not self.counts[idx]:
                continue
            is_async = self.samples[idx] is not None
            rows.append(
                {
                    "name": name,
                    "kind": "wait" if is_async else "busy",
                    "calls": self.counts[idx],
                    "total_s": self.busy_ns[idx] / 1e9,
                    "self_s": None if is_async else self.self_ns[idx] / 1e9,
                }
            )
        rows.sort(key=lambda r: -(r["self_s"] or 0.0))
        return rows

    def write_chrome_trace(self, path: str, process_name: str) -> int:
        """Chrome ``about://tracing`` / Perfetto JSON: sync spans as
        complete ("X") events on one thread, async spans as nestable
        async ("b"/"e") pairs keyed by span id."""
        events: List[Dict[str, object]] = [
            {
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "name": "process_name",
                "args": {"name": process_name},
            }
        ]
        for label, start, wall, _ in self.roots:
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "name": label,
                    "ts": start / 1e3,
                    "dur": wall / 1e3,
                }
            )
        for idx, start, elapsed, sid, parent, rid in self.spans:
            args = {"span": sid, "parent": parent}
            if rid is not None:
                args["request_id"] = rid
            if self.samples[idx] is None:
                events.append(
                    {
                        "ph": "X",
                        "pid": 1,
                        "tid": 1,
                        "name": self.names[idx],
                        "ts": start / 1e3,
                        "dur": elapsed / 1e3,
                        "args": args,
                    }
                )
            else:
                base = {
                    "pid": 1,
                    "tid": 2,
                    "cat": "await",
                    "id": sid,
                    "name": self.names[idx],
                }
                events.append({**base, "ph": "b", "ts": start / 1e3, "args": args})
                events.append({**base, "ph": "e", "ts": (start + elapsed) / 1e3})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)
