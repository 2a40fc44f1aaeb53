"""A minimal, deterministic discrete-event engine.

Events are callables scheduled at integer timestamps; ties are broken by
insertion order so simulations are reproducible.  Timers can be cancelled
(lazily: cancelled entries are skipped when popped), which the policy actors
use to drop a pending logical-pause wake-up when the customer logs in.

Most scheduled events are never cancelled (session starts/ends, resume
completions, the periodic control-plane ticks), so :meth:`EventQueue.
schedule_oneshot` offers a lighter path that skips the :class:`Timer`
allocation and its ``on_cancel`` closure entirely; only events that may
need cancelling (the actors' wake timers) pay for a handle.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.observability.runtime import OBS

Action = Callable[[int], None]


class Timer:
    """Handle for a scheduled event; ``cancel()`` prevents execution."""

    __slots__ = ("time", "_cancelled", "_popped", "_on_cancel")

    def __init__(self, time: int, on_cancel: Optional[Callable[[], None]] = None):
        self.time = time
        self._cancelled = False
        self._popped = False
        self._on_cancel = on_cancel

    def cancel(self) -> None:
        if self._cancelled:
            return
        self._cancelled = True
        # Tell the owning queue to drop this entry from its live count,
        # unless the entry already left the heap.
        if self._on_cancel is not None and not self._popped:
            self._on_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class EventQueue:
    """Priority queue of timed actions with a monotonic clock.

    ``len(queue)`` counts the *live* (scheduled, not cancelled, not yet
    executed) entries.  Cancellation is lazy in the heap -- cancelled
    entries are skipped when popped -- but the count is maintained
    eagerly, so ``__len__`` is O(1); it sits on hot-path assertions and
    must not scan the heap.
    """

    def __init__(self, start: int = 0):
        self._now = start
        self._heap: List[Tuple[int, int, Optional[Timer], Action]] = []
        self._sequence = itertools.count()
        self._live = 0

    @property
    def now(self) -> int:
        return self._now

    def __len__(self) -> int:
        return self._live

    def _drop_live(self) -> None:
        self._live -= 1

    def schedule(self, time: int, action: Action) -> Timer:
        """Schedule ``action(time)``; returns a cancellable handle."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time} before now={self._now}"
            )
        timer = Timer(time, on_cancel=self._drop_live)
        heapq.heappush(self._heap, (time, next(self._sequence), timer, action))
        self._live += 1
        return timer

    def schedule_oneshot(self, time: int, action: Action) -> None:
        """Schedule ``action(time)`` without a cancellable handle.

        Identical dispatch semantics to :meth:`schedule` (same (time,
        insertion-order) priority), but no :class:`Timer` object and no
        ``on_cancel`` closure are allocated.  Use it for the majority of
        events that are never cancelled -- trace replay and the periodic
        control-plane ticks -- and keep :meth:`schedule` for wake-ups
        that a login may need to drop.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time} before now={self._now}"
            )
        heapq.heappush(self._heap, (time, next(self._sequence), None, action))
        self._live += 1

    def _dispatch(self, time: int, action: Action) -> None:
        """Execute one popped event, tracing it when observability is on.

        Every span opened while the action runs (policy, predictor, resume
        scan, SQL) nests under this ``engine.event`` span -- the dispatch
        is the root of the per-event trace context.
        """
        if OBS.enabled:
            with OBS.tracer.span("engine.event", t=time):
                action(time)
            OBS.metrics.counter("engine.events_dispatched").inc()
        else:
            action(time)

    def _record_run_metrics(self, executed: int, start: int) -> None:
        if OBS.enabled and self._now > start:
            OBS.metrics.gauge("engine.sim_time").set(self._now)
            OBS.metrics.gauge("engine.events_per_sim_second").set(
                executed / (self._now - start)
            )

    def run_until(self, end: int) -> int:
        """Process every event with time <= ``end``; returns the number of
        events executed.  The clock finishes at ``end``."""
        executed = 0
        run_start = self._now
        while self._heap and self._heap[0][0] <= end:
            time, _, timer, action = heapq.heappop(self._heap)
            if timer is not None:
                timer._popped = True
                if timer.cancelled:
                    # Already removed from the live count at cancel() time.
                    continue
            self._live -= 1
            self._now = time
            self._dispatch(time, action)
            executed += 1
        self._now = max(self._now, end)
        self._record_run_metrics(executed, run_start)
        return executed

    def run_all(self) -> int:
        """Process every remaining event."""
        executed = 0
        run_start = self._now
        while self._heap:
            time, _, timer, action = heapq.heappop(self._heap)
            if timer is not None:
                timer._popped = True
                if timer.cancelled:
                    continue
            self._live -= 1
            self._now = time
            self._dispatch(time, action)
            executed += 1
        self._record_run_metrics(executed, run_start)
        return executed
