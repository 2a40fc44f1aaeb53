"""Windowed time-series metrics: ring-buffered per-window aggregates.

The cumulative registry (:mod:`repro.observability.metrics`) answers
"how many so far"; the SLO layer needs "how many in the last N minutes".
These series types bucket observations into fixed-width windows aligned
to the absolute clock -- window ``i`` covers ``[i*window_s, (i+1)*window_s)``
-- so rollover is a pure function of the timestamp, never of call order.
That alignment is what makes worker merges deterministic: a serial run
and a :class:`~repro.parallel.MultiprocessExecutor` run that record the
same (timestamp, value) pairs produce identical window contents after
:meth:`MetricsRegistry.merge`, regardless of how the work was chunked.

A series retains the newest ``capacity`` windows (relative to the newest
index ever seen); older windows fold into an ``overflow`` aggregate that
still counts toward :meth:`total`, so whole-run sums are exact no matter
how small the ring is.  The clock is whatever the caller passes --
simulation seconds in the engines, ``time.monotonic()`` in the serving
gateway -- the series only ever does integer window arithmetic on it.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ProRPError
from repro.observability.metrics import LATENCY_BUCKETS_MS

Number = Union[int, float]

#: Default window width in (sim or wall) seconds: 15 minutes, the fast
#: burn-rate window used by the stock SLOs.
DEFAULT_WINDOW_S = 900

#: Default ring capacity.  1024 x 900 s is ~10.6 simulated days -- wider
#: than any experiment's evaluation window, so eviction only matters for
#: long-lived serving processes (where the overflow aggregate keeps the
#: totals exact anyway).
DEFAULT_WINDOW_CAPACITY = 1024


class _SeriesBase:
    """Shared window bookkeeping for the three series kinds.

    Subclasses store per-window payloads in ``windows`` (index -> payload)
    and must implement ``_fold_overflow(payload)`` to absorb an evicted
    window and ``_merge_window(idx, payload)`` to fold a peer's window in.
    """

    __slots__ = ("name", "labels", "window_s", "capacity", "windows",
                 "dropped_windows", "_max_idx")

    def __init__(
        self,
        name: str,
        window_s: Number = DEFAULT_WINDOW_S,
        capacity: int = DEFAULT_WINDOW_CAPACITY,
        labels: Optional[Dict[str, str]] = None,
    ):
        if window_s <= 0:
            raise ProRPError(f"series {name!r}: window_s must be > 0")
        if capacity < 1:
            raise ProRPError(f"series {name!r}: capacity must be >= 1")
        self.name = name
        self.labels = dict(labels) if labels else None
        self.window_s = window_s
        self.capacity = capacity
        self.windows: Dict[int, object] = {}
        self.dropped_windows = 0
        self._max_idx: Optional[int] = None

    def index(self, t: Number) -> int:
        return int(t // self.window_s)

    def window_start(self, idx: int) -> Number:
        return idx * self.window_s

    def _floor_idx(self) -> Optional[int]:
        """Oldest index still retained; anything older folds to overflow."""
        if self._max_idx is None:
            return None
        return self._max_idx - self.capacity + 1

    def _is_overflow(self, idx: int) -> bool:
        floor = self._floor_idx()
        return floor is not None and idx < floor

    def _touch(self, idx: int):
        """Get-or-create the window for ``idx``, evicting anything the
        ring no longer covers.  Caller has checked ``_is_overflow``."""
        if self._max_idx is None or idx > self._max_idx:
            self._max_idx = idx
            floor = idx - self.capacity + 1
            for old in sorted(k for k in self.windows if k < floor):
                self._fold_overflow(old, self.windows.pop(old))
                self.dropped_windows += 1
        win = self.windows.get(idx)
        if win is None:
            win = self._new_window()
            self.windows[idx] = win
        return win

    def _check_mergeable(self, other: "_SeriesBase") -> None:
        if other.window_s != self.window_s:
            raise ProRPError(
                f"series {self.name!r}: cannot merge window_s="
                f"{other.window_s} into window_s={self.window_s}"
            )

    def merge(self, other: "_SeriesBase") -> None:
        self._check_mergeable(other)
        self._merge_overflow(other)
        self.dropped_windows += other.dropped_windows
        if other._max_idx is not None and (
            self._max_idx is None or other._max_idx > self._max_idx
        ):
            # Adopt the peer's newer high-water mark first so its old
            # windows route to overflow exactly as a serial run would.
            self._touch(other._max_idx)
        for idx in sorted(other.windows):
            payload = other.windows[idx]
            if self._is_overflow(idx):
                self._fold_overflow(idx, payload)
                self.dropped_windows += 1
            else:
                self._merge_window(idx, payload)

    # -- subclass hooks -------------------------------------------------
    def _new_window(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _fold_overflow(self, idx: int, payload) -> None:  # pragma: no cover
        raise NotImplementedError

    def _merge_window(self, idx: int, payload) -> None:  # pragma: no cover
        raise NotImplementedError

    def _merge_overflow(self, other) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class CounterSeries(_SeriesBase):
    """Per-window monotone counts (logins, sheds, idle seconds, ...)."""

    __slots__ = ("overflow",)
    kind = "counter_series"

    def __init__(self, name, window_s=DEFAULT_WINDOW_S,
                 capacity=DEFAULT_WINDOW_CAPACITY, labels=None):
        super().__init__(name, window_s, capacity, labels)
        self.overflow: Number = 0

    def inc(self, t: Number, n: Number = 1) -> None:
        if n < 0:
            raise ProRPError(f"series {self.name!r} cannot decrease (inc {n})")
        idx = self.index(t)
        if self._is_overflow(idx):
            self.overflow += n
            return
        win = self._touch(idx)
        self.windows[idx] = win + n

    def add_interval(self, start: Number, end: Number, weight: Number = 1) -> None:
        """Distribute ``(end - start) * weight`` across the windows the
        interval overlaps (used for idle/used/unavailable second streams)."""
        if end <= start:
            return
        idx = self.index(start)
        while self.window_start(idx) < end:
            lo = max(start, self.window_start(idx))
            hi = min(end, self.window_start(idx + 1))
            if hi > lo:
                self.inc(lo, (hi - lo) * weight)
            idx += 1

    def total(self) -> Number:
        return self.overflow + sum(self.windows.values())

    def value_at(self, t: Number) -> Number:
        return self.windows.get(self.index(t), 0)

    def sum_last(self, now: Number, span_s: Number) -> Number:
        """Sum of the complete windows covering ``[now - span_s, now)``.

        The window containing ``now`` itself is excluded -- it is still
        filling, and including it would make evaluations racy.
        """
        end_idx = self.index(now)
        n_windows = max(1, int(-(-span_s // self.window_s)))
        return sum(
            self.windows.get(idx, 0)
            for idx in range(end_idx - n_windows, end_idx)
        )

    def window_items(self) -> List[Tuple[Number, Number]]:
        """``(window_start, value)`` pairs, oldest first."""
        return [(self.window_start(i), self.windows[i])
                for i in sorted(self.windows)]

    def _new_window(self):
        return 0

    def _fold_overflow(self, idx, payload) -> None:
        self.overflow += payload

    def _merge_window(self, idx, payload) -> None:
        win = self._touch(idx)
        self.windows[idx] = win + payload

    def _merge_overflow(self, other) -> None:
        self.overflow += other.overflow

    def snapshot(self) -> Dict[str, object]:
        return {
            "window_s": self.window_s,
            "total": self.total(),
            "windows": len(self.windows),
            "dropped_windows": self.dropped_windows,
            "overflow": self.overflow,
        }


class GaugeSeries(_SeriesBase):
    """Per-window last-written value (breaker state, queue depth, ...).

    Within a window, later writes win; across windows the newest window
    wins.  ``last`` is the newest value ever written; the threshold SLOs
    evaluate ``last_before(now)`` ("was the breaker open *at now*").
    """

    __slots__ = ("overflow_idx", "overflow_value")
    kind = "gauge_series"

    def __init__(self, name, window_s=DEFAULT_WINDOW_S,
                 capacity=DEFAULT_WINDOW_CAPACITY, labels=None):
        super().__init__(name, window_s, capacity, labels)
        self.overflow_idx: Optional[int] = None
        self.overflow_value: Optional[Number] = None

    def set(self, t: Number, value: Number) -> None:
        idx = self.index(t)
        if self._is_overflow(idx):
            if self.overflow_idx is None or idx >= self.overflow_idx:
                self.overflow_idx, self.overflow_value = idx, value
            return
        self._touch(idx)
        self.windows[idx] = value

    @property
    def last(self) -> Optional[Number]:
        if self.windows:
            return self.windows[max(self.windows)]
        return self.overflow_value

    def window_items(self) -> List[Tuple[Number, Number]]:
        return [(self.window_start(i), self.windows[i])
                for i in sorted(self.windows)]

    def last_before(self, now: Number) -> Optional[Number]:
        """The newest complete window's value before ``now`` -- what
        ``last`` read while the clock stood at ``now`` (writes at or
        after ``now`` are ignored, so a finished run reads like a live one)."""
        end_idx = self.index(now)
        older = [idx for idx in self.windows if idx < end_idx]
        if older:
            return self.windows[max(older)]
        if self.overflow_idx is not None and self.overflow_idx < end_idx:
            return self.overflow_value
        return None

    def max_last(self, now: Number, span_s: Number) -> Optional[Number]:
        """Max over the complete windows covering ``[now - span_s, now)``."""
        end_idx = self.index(now)
        n_windows = max(1, int(-(-span_s // self.window_s)))
        values = [self.windows[idx]
                  for idx in range(end_idx - n_windows, end_idx)
                  if idx in self.windows]
        return max(values) if values else None

    def _new_window(self):
        return None

    def _fold_overflow(self, idx, payload) -> None:
        # Keep the newest evicted window as the overflow marker so
        # ``last`` survives even when every window has rolled out.
        if self.overflow_idx is None or idx >= self.overflow_idx:
            self.overflow_idx, self.overflow_value = idx, payload

    def _merge_window(self, idx, payload) -> None:
        self._touch(idx)
        self.windows[idx] = payload  # peer merge is "later": last write wins

    def _merge_overflow(self, other) -> None:
        if other.overflow_idx is not None and (
            self.overflow_idx is None or other.overflow_idx >= self.overflow_idx
        ):
            self.overflow_idx = other.overflow_idx
            self.overflow_value = other.overflow_value

    def snapshot(self) -> Dict[str, object]:
        return {
            "window_s": self.window_s,
            "last": self.last,
            "windows": len(self.windows),
            "dropped_windows": self.dropped_windows,
        }


class _HistWindow:
    """One window of histogram deltas, plus the worst-observation exemplar."""

    __slots__ = ("counts", "count", "sum", "min", "max", "exemplar")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: ``(value, token)`` of the largest observation in this window --
        #: the span/request id operators pivot to when a window's p99 pages.
        self.exemplar: Optional[Tuple[float, str]] = None

    def observe(self, bucket: int, value: float, token: Optional[str]) -> None:
        self.counts[bucket] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
            if token is not None:
                self.exemplar = (value, token)

    def fold(self, other: "_HistWindow") -> None:
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
            self.exemplar = other.exemplar


class HistogramSeries(_SeriesBase):
    """Per-window histogram deltas over a fixed bucket layout.

    Unlike the cumulative :class:`~repro.observability.metrics.Histogram`
    there is no raw-sample buffer: percentiles are bucket-interpolated,
    which is what a scrape-based monitoring plane has anyway.
    """

    __slots__ = ("buckets", "overflow")
    kind = "histogram_series"

    def __init__(self, name, window_s=DEFAULT_WINDOW_S, buckets=None,
                 capacity=DEFAULT_WINDOW_CAPACITY, labels=None):
        super().__init__(name, window_s, capacity, labels)
        bounds = list(LATENCY_BUCKETS_MS if buckets is None else buckets)
        if not bounds or any(nxt <= prev for prev, nxt in zip(bounds, bounds[1:])):
            raise ProRPError(
                f"series {name!r} needs strictly increasing bucket bounds"
            )
        self.buckets = bounds
        self.overflow = _HistWindow(len(bounds) + 1)

    def observe(self, t: Number, value: Number,
                exemplar: Optional[str] = None) -> None:
        value = float(value)
        bucket = bisect.bisect_left(self.buckets, value)
        idx = self.index(t)
        if self._is_overflow(idx):
            self.overflow.observe(bucket, value, exemplar)
            return
        win = self._touch(idx)
        win.observe(bucket, value, exemplar)

    def total_count(self) -> int:
        return self.overflow.count + sum(w.count for w in self.windows.values())

    def total_sum(self) -> float:
        return self.overflow.sum + sum(w.sum for w in self.windows.values())

    def merged_counts(self) -> List[int]:
        """Bucket counts summed over overflow + every retained window."""
        counts = list(self.overflow.counts)
        for win in self.windows.values():
            for i, c in enumerate(win.counts):
                counts[i] += c
        return counts

    def worst_exemplar(self) -> Optional[Tuple[float, str]]:
        """The exemplar of the largest observation across retained windows."""
        best = None
        for win in self.windows.values():
            if win.exemplar is not None and (
                best is None or win.exemplar[0] > best[0]
            ):
                best = win.exemplar
        return best

    def _windows_in(self, now: Number, span_s: Number) -> List["_HistWindow"]:
        end_idx = self.index(now)
        n_windows = max(1, int(-(-span_s // self.window_s)))
        return [self.windows[idx]
                for idx in range(end_idx - n_windows, end_idx)
                if idx in self.windows]

    def percentile_last(self, now: Number, span_s: Number, p: float) -> float:
        """Bucket-interpolated percentile over the complete windows in
        ``[now - span_s, now)``; 0.0 when no observations landed there."""
        if not 0.0 <= p <= 100.0:
            raise ProRPError(f"percentile {p} outside [0, 100]")
        wins = self._windows_in(now, span_s)
        if not wins:
            return 0.0
        counts = [0] * (len(self.buckets) + 1)
        lo_obs: Optional[float] = None
        hi_obs: Optional[float] = None
        for win in wins:
            for i, c in enumerate(win.counts):
                counts[i] += c
            if win.min is not None and (lo_obs is None or win.min < lo_obs):
                lo_obs = win.min
            if win.max is not None and (hi_obs is None or win.max > hi_obs):
                hi_obs = win.max
        return _bucket_percentile(counts, self.buckets, p, lo_obs, hi_obs)

    def count_last(self, now: Number, span_s: Number) -> int:
        return sum(w.count for w in self._windows_in(now, span_s))

    def _new_window(self):
        return _HistWindow(len(self.buckets) + 1)

    def _fold_overflow(self, idx, payload) -> None:
        self.overflow.fold(payload)

    def _merge_window(self, idx, payload) -> None:
        win = self._touch(idx)
        win.fold(payload)

    def _merge_overflow(self, other) -> None:
        self.overflow.fold(other.overflow)

    def _check_mergeable(self, other) -> None:
        super()._check_mergeable(other)
        if other.buckets != self.buckets:
            raise ProRPError(
                f"series {self.name!r}: cannot merge differing bucket layouts"
            )

    def snapshot(self) -> Dict[str, object]:
        worst = self.worst_exemplar()
        return {
            "window_s": self.window_s,
            "count": self.total_count(),
            "sum": round(self.total_sum(), 6),
            "windows": len(self.windows),
            "dropped_windows": self.dropped_windows,
            "worst_exemplar": list(worst) if worst else None,
        }


def _bucket_percentile(
    counts: Sequence[int],
    buckets: Sequence[float],
    p: float,
    lo_obs: Optional[float],
    hi_obs: Optional[float],
) -> float:
    """Linear interpolation inside the owning bucket, clamped to the
    observed [min, max] (same scheme as ``Histogram._bucket_percentile``)."""
    total = sum(counts)
    if total == 0:
        return 0.0
    target = p / 100.0 * total
    cumulative = 0
    for i, bucket_count in enumerate(counts):
        if cumulative + bucket_count >= target:
            lo = buckets[i - 1] if i > 0 else 0.0
            hi = buckets[i] if i < len(buckets) else (hi_obs or lo)
            if lo_obs is not None:
                lo = max(lo, lo_obs)
            if hi_obs is not None:
                hi = min(hi, hi_obs)
            if bucket_count == 0 or hi < lo:
                return hi
            fraction = (target - cumulative) / bucket_count
            return lo + (hi - lo) * fraction
        cumulative += bucket_count
    return hi_obs or 0.0


Series = Union[CounterSeries, GaugeSeries, HistogramSeries]
