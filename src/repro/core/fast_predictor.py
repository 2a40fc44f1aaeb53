"""Vectorised implementation of Algorithm 4.

Semantically identical to :func:`repro.core.predictor.predict_next_activity`
(the test suite proves equivalence property-based), but evaluates every
(candidate window x previous period) range query as one pair of
``numpy.searchsorted`` calls over the sorted login-timestamp array instead
of p/s * h B-tree range scans.  Fleet-scale simulations run this version;
the overhead experiment (Figure 10(c)) times the reference version, which
matches the paper's in-engine stored procedure.

:meth:`FastPredictor.predict_pairs` is the batched kernel: any set of
``(history, now)`` pairs -- histories concatenated into one buffer +
offsets, one ``now`` per database -- in O(logins log logins), without ever
building the (database x window x period) grid.  It sweeps intervals
(derivation in ``docs/algorithms.md``):

* Relative to its own ``now``, a login sits at position ``r`` inside the
  frame of look-back period ``j`` and covers the contiguous run of windows
  ``ceil((r - window) / slide) .. floor(r / slide)``: integer division, no
  search.  Windows are closed on both ends, so a login on a period
  boundary is at ``r = 0`` of one period *and* ``r = period`` of the next;
  every period whose frame holds it (``r <= span``) gets a run.
* A window is active in a period when it lies in the *union* of that
  (database, period) group's runs.  The group's logins are sorted, so both
  run ends ascend and one compare finds the union's stretches exactly.
* +1 at each stretch's first window and -1 past its last, as one sorted
  int64 key per delta; one running sum over all of them gives each
  database's number of active periods from each key's window on -- the
  probability numerators -- since every database's deltas sum to 0.
  Selection is an integer threshold, a seed per database and a climb
  along adjacent windows, all read off the keys (no ``D x W`` table);
  only the winning window per database needs the exact first/last login,
  read with :meth:`FastPredictor.predict`'s cursors.
* Search keys are now-relative times clipped to just outside the range any
  window reads, so an unsorted or out-of-range history can only spoil its
  own answer, never a co-batched neighbour's.

:meth:`FastPredictor.predict_fleet` is the same kernel over a list of
histories, at one ``now`` or one per database.  Fleets
are swept :data:`PAIR_BLOCK` databases at a time (O(block) temporaries);
results are byte-identical to per-database ``predict`` calls.
"""

from __future__ import annotations

import time as _time
from functools import lru_cache
from itertools import chain
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import ProRPConfig
from repro.core.prediction_cache import HOT_PATH
from repro.observability.metrics import LATENCY_BUCKETS_MS, SIZE_BUCKETS
from repro.observability.runtime import OBS
from repro.types import PredictedActivity


class FastPredictor:
    """Precomputes the window/period offset grid for one configuration."""

    def __init__(self, config: ProRPConfig):
        self.config = config
        n_windows = config.windows_per_horizon
        period = config.seasonality.period_seconds
        periods = config.seasonality_periods_in_history
        self._n_windows = n_windows
        self._periods = periods
        # Offsets of each candidate window start relative to `now`.
        window_offsets = np.arange(n_windows, dtype=np.int64) * config.slide_s
        # Look-back shifts for each previous period.
        period_shifts = np.arange(1, periods + 1, dtype=np.int64) * period
        # Grid of past-window starts relative to `now`: shape (W, P).
        self._past_start_offsets = window_offsets[:, None] - period_shifts[None, :]
        # Interval-sweep constants (:meth:`_sweep`).  `span` is the end of
        # the last window relative to `now`; `min_count` the smallest count
        # whose probability reaches the confidence knob, compared in floats
        # exactly as `_select` does; now-relative logins are clipped to one
        # second outside the range windows read, [-P * period, span - period].
        self._period = period
        self._period_shifts = period_shifts
        self._span = (n_windows - 1) * config.slide_s + config.window_s
        self._min_count = next(
            c for c in range(periods + 1) if c / periods >= config.confidence
        )
        self._rel_lo = -periods * period - 1
        self._rel_hi = self._span - period + 1
        self._seg_stride = self._rel_hi - self._rel_lo + 1
        self._sweeps_one = n_windows * periods >= SWEEP_MIN_GRID_KEYS

    def predict(self, logins: Sequence[int], now: int) -> PredictedActivity:
        """Run the prediction against a sorted array of login timestamps.

        Evaluates the full (window x period) grid: the independent oracle
        the interval sweep is checked against."""
        return self._observed(self._predict, logins, now)

    def predict_one(self, logins: Sequence[int], now: int) -> PredictedActivity:
        """:meth:`predict`'s answer by the cheaper kernel for these knobs:
        the interval sweep over one segment, O(logins log logins), once the
        W x P grid has :data:`SWEEP_MIN_GRID_KEYS` keys; the grid below."""
        kernel = self._sweep_one if self._sweeps_one else self._predict
        return self._observed(kernel, logins, now)

    def _observed(
        self,
        kernel: Callable[[Sequence[int], int], PredictedActivity],
        logins: Sequence[int],
        now: int,
    ) -> PredictedActivity:
        if not OBS.enabled:
            return kernel(logins, now)
        started = _time.perf_counter()
        with OBS.tracer.span("predictor.fast", t=now):
            prediction = kernel(logins, now)
        elapsed_ms = (_time.perf_counter() - started) * 1000.0
        OBS.metrics.histogram(
            "predictor.fast.latency_ms", buckets=LATENCY_BUCKETS_MS
        ).observe(elapsed_ms)
        OBS.metrics.counter("predictor.fast.calls").inc()
        return prediction

    def _predict(self, logins: Sequence[int], now: int) -> PredictedActivity:
        config = self.config
        if self._n_windows == 0:
            return PredictedActivity.none()
        logins_arr = np.asarray(logins, dtype=np.int64)
        if logins_arr.size == 0:
            return PredictedActivity.none()
        HOT_PATH.full_scans += 1
        past_starts = now + self._past_start_offsets  # (W, P)
        flat_starts = past_starts.ravel()
        left = np.searchsorted(logins_arr, flat_starts, side="left")
        right = np.searchsorted(
            logins_arr, flat_starts + config.window_s, side="right"
        )
        has_activity = (right > left).reshape(past_starts.shape)  # (W, P)
        counts = has_activity.sum(axis=1)
        probabilities = counts / self._periods

        # First-login offset per (window, period); window_s when absent so a
        # min-reduction reproduces the @firstLoginPerWin = @w initialisation.
        first_idx = np.minimum(left, logins_arr.size - 1)
        first_offsets = np.where(
            has_activity.ravel(),
            logins_arr[first_idx] - flat_starts,
            config.window_s,
        ).reshape(past_starts.shape)
        last_idx = np.maximum(right - 1, 0)
        last_offsets = np.where(
            has_activity.ravel(),
            logins_arr[last_idx] - flat_starts,
            0,
        ).reshape(past_starts.shape)
        first_per_window = first_offsets.min(axis=1)
        last_per_window = last_offsets.max(axis=1)
        return self._select(now, probabilities, first_per_window, last_per_window)

    def _sweep_one(self, logins: Sequence[int], now: int) -> PredictedActivity:
        logins_arr = np.asarray(logins, dtype=np.int64)
        if self._n_windows == 0 or logins_arr.size == 0:
            return PredictedActivity.none()
        HOT_PATH.full_scans += 1
        offsets = np.array([0, logins_arr.size], dtype=np.int64)
        return self._sweep(logins_arr, offsets, np.array([now], dtype=np.int64))[0]

    def _select(
        self,
        now: int,
        probabilities: np.ndarray,
        first_per_window: np.ndarray,
        last_per_window: np.ndarray,
    ) -> PredictedActivity:
        """Window selection with the same tie-breaking as the reference
        scan; shared by the single-database and fleet paths."""
        config = self.config
        best: Optional[PredictedActivity] = None
        previous_probability = 0.0
        for w in range(self._n_windows):
            probability = float(probabilities[w])
            if probability >= config.confidence and (
                best is None or probability > previous_probability
            ):
                window_start = now + w * config.slide_s
                best = PredictedActivity(
                    start=int(window_start + first_per_window[w]),
                    end=int(window_start + last_per_window[w]),
                    confidence=probability,
                )
                previous_probability = probability
            elif best is not None:
                break
        return best if best is not None else PredictedActivity.none()

    # ------------------------------------------------------------------
    # Batched prediction: the interval sweep
    # ------------------------------------------------------------------

    def predict_fleet(
        self,
        fleet_logins: Sequence[Sequence[int]],
        now: Union[int, Sequence[int]],
    ) -> List[PredictedActivity]:
        """Predict every database of a fleet: :meth:`predict_pairs` over
        lists.  ``fleet_logins`` holds each database's sorted login
        timestamps and ``now`` is one instant for all of them or a sequence
        with each database's own; the result is byte-identical to calling
        :meth:`predict` per database."""
        if not OBS.enabled:
            return self._predict_fleet(fleet_logins, now)
        started = _time.perf_counter()
        with OBS.tracer.span("predictor.batch", t=now, size=len(fleet_logins)):
            predictions = self._predict_fleet(fleet_logins, now)
        elapsed_ms = (_time.perf_counter() - started) * 1000.0
        OBS.metrics.histogram(
            "predictor.batch.latency_ms", buckets=LATENCY_BUCKETS_MS
        ).observe(elapsed_ms)
        OBS.metrics.histogram(
            "predictor.batch.size", buckets=SIZE_BUCKETS
        ).observe(len(fleet_logins))
        return predictions

    def _predict_fleet(
        self,
        fleet_logins: Sequence[Sequence[int]],
        now: Union[int, Sequence[int]],
    ) -> List[PredictedActivity]:
        concat, offsets = concat_logins(fleet_logins)
        nows = np.asarray(now, dtype=np.int64)
        if nows.ndim == 0:
            nows = np.full(len(fleet_logins), nows)
        HOT_PATH.batch_evals += 1
        HOT_PATH.batch_databases += len(fleet_logins)
        return self.predict_pairs(concat, offsets, nows)

    def predict_pairs(
        self, concat: np.ndarray, offsets: np.ndarray, nows: np.ndarray
    ) -> List[PredictedActivity]:
        """Predict ``len(nows)`` independent ``(history, now)`` pairs.

        Database ``i``'s sorted logins are ``concat[offsets[i]:offsets[i +
        1]]`` and ``nows[i]`` is its own instant (all int64 arrays); entry
        ``i`` of the result equals ``predict`` on that pair.  A history
        that is not sorted can only spoil its own entry.
        """
        results: List[PredictedActivity] = []
        for lo in range(0, len(nows), PAIR_BLOCK):
            hi = min(lo + PAIR_BLOCK, len(nows))
            results += self._sweep(
                concat[offsets[lo] : offsets[hi]],
                offsets[lo : hi + 1] - offsets[lo],
                nows[lo:hi],
            )
        return results

    def _sweep(
        self, concat: np.ndarray, offsets: np.ndarray, nows: np.ndarray
    ) -> List[PredictedActivity]:
        """One block of :meth:`predict_pairs` (``offsets`` start at 0)."""
        d = len(nows)
        results = [PredictedActivity.none()] * d
        if concat.size == 0 or self._n_windows == 0:
            return results
        n_windows, periods, period = self._n_windows, self._periods, self._period
        slide, window = self.config.slide_s, self.config.window_s
        sizes = offsets[1:] - offsets[:-1]
        # Array methods and ufuncs rather than their numpy-function
        # wrappers (``np.flatnonzero``, ``np.clip``, ...): at one or two
        # databases per call the wrappers' dispatch is a fair share of it.
        db = np.arange(d, dtype=np.int64).repeat(sizes)
        # Now-relative login times.  Clipping keeps later products small
        # whatever the magnitudes; exact, as a clipped login is in no window.
        rel = concat - nows.repeat(sizes)
        np.minimum(np.maximum(rel, self._rel_lo, out=rel), self._rel_hi, out=rel)

        # The nearest period, j = ceil(-rel / period), holds the login at
        # frame position r = rel mod period; each further period j + c
        # holds it at r + c * period while that is still <= span.
        parts = [(-(rel // period), rel % period, db)]
        for c in range(1, self._span // period + 1):
            again = (parts[0][1] <= self._span - c * period).nonzero()[0]
            if again.size:
                lookback, position, owner = (part[again] for part in parts[0])
                parts.append((lookback + c, position + c * period, owner))
        lookback, position, owner = (
            parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        )
        # The run of windows k with k * slide <= r <= k * slide + window:
        # empty past the last window and in the gaps of a window < slide.
        w_lo = np.maximum(-((window - position) // slide), 0)
        w_hi = np.minimum(position // slide, n_windows - 1)
        live = (
            (lookback >= 1) & (lookback <= periods) & (w_lo <= w_hi)
        ).nonzero()[0]
        if live.size == 0:
            return results
        owner, w_lo, w_hi = owner[live], w_lo[live], w_hi[live]
        # (database, period) groups, ascending as the logins are stored.
        group = owner * (periods + 1) - lookback[live]
        if len(parts) > 1:
            # Further periods were appended behind the nearest ones: a
            # stable sort regroups them and keeps each group ascending
            # (within a period, the appended positions are the larger).
            order = group.argsort(kind="stable")
            group, owner, w_lo, w_hi = (
                group[order], owner[order], w_lo[order], w_hi[order]
            )
        # Inside a group both run ends ascend with the login, so a run
        # opens a new stretch of the group's union exactly when it starts
        # past the previous run's end.
        opens = np.empty(group.size, dtype=bool)
        opens[0] = True
        np.logical_or(group[1:] != group[:-1], w_lo[1:] > w_hi[:-1], out=opens[1:])
        first_run = opens.nonzero()[0]
        last_run = np.concatenate((first_run[1:] - 1, [group.size - 1]))
        # +1 where a stretch begins, -1 just past its end, each one sortable
        # key: cell = owner * (W + 1) + window, then the sign bit, so at one
        # cell the -1s sort before the +1s.  Every database's deltas sum to
        # 0, so one running sum over the sorted keys is each database's own
        # count of active periods; the level after a cell's last key holds
        # from that window to the next cell of the row.  A sentinel key past
        # every row closes the last cell.
        stride = 2 * (n_windows + 1)
        base = owner[first_run] * stride
        edges = np.concatenate((
            base + 2 * w_lo[first_run] + 1,
            base + 2 * w_hi[last_run] + 2,
            [d * stride],
        ))
        edges.sort()
        level = ((edges & 1) * 2 - 1).cumsum()
        cell = edges >> 1
        cell_ends = (cell[1:] != cell[:-1]).nonzero()[0]
        cell, level = cell[cell_ends], level[cell_ends]

        # `_select` on counts: seed at the first qualifying window, climb
        # while the next cell is the adjacent window at a higher level, keep
        # the last window reached.  A row's last cell is at level 0, below
        # any climb, so every climb stops before it: inside its own row
        # (although the cell after a row's window W is the next row's
        # window 0), and before the end of the array.
        qualifying = (level >= self._min_count).nonzero()[0]
        if qualifying.size == 0:
            return results
        rows = cell[qualifying] // (n_windows + 1)
        firsts = np.empty(rows.size, dtype=bool)
        firsts[0] = True
        np.not_equal(rows[1:], rows[:-1], out=firsts[1:])
        seeds, rows = qualifying[firsts], rows[firsts]
        stalls = (
            (cell[1:] != cell[:-1] + 1) | (level[1:] <= level[:-1])
        ).nonzero()[0]
        reached = stalls[stalls.searchsorted(seeds)]
        best = cell[reached] % (n_windows + 1)
        best_counts = level[reached]

        # First/last login of the winning windows only: `_predict`'s exact
        # cursors, one searchsorted pair over disjoint per-database segments
        # of the clipped times, so no history reaches into a neighbour's.
        keys = db * self._seg_stride + (rel - self._rel_lo)
        past_start = (best * slide)[:, None] - self._period_shifts  # (K, P)
        queries = (rows * self._seg_stride - self._rel_lo)[:, None] + past_start
        left = keys.searchsorted(queries, side="left")
        right = keys.searchsorted(queries + window, side="right")
        has = right > left
        first = rel[np.minimum(left, rel.size - 1)] - past_start
        last = rel[np.maximum(right - 1, 0)] - past_start
        window_start = nows[rows] + best * slide
        starts = window_start + np.where(has, first, window).min(axis=1)
        ends = window_start + np.where(has, last, 0).max(axis=1)
        for row, start, end, count in zip(
            rows.tolist(), starts.tolist(), ends.tolist(), best_counts.tolist()
        ):
            results[row] = PredictedActivity(start, end, count / periods)
        return results


#: Grid size (windows x periods) from which one ``(history, now)`` pair is
#: cheaper to sweep than to grid: the sweep costs a few dozen numpy calls
#: whatever the knobs, the grid grows with W x P.  On a 2-vCPU box the grid
#: wins by ~0.1 ms at 205 x 2 keys, the two tie near 205 x 15, and the
#: sweep wins by ~0.06 ms at the paper's 205 x 28.
SWEEP_MIN_GRID_KEYS = 3_000

#: Databases per :meth:`FastPredictor.predict_pairs` sweep: ~3 ms of array
#: work against ~0.1 ms of fixed numpy call overhead, and the bound on the
#: temporaries (the block's logins and stretch keys, and its ``block x P``
#: first/last-login queries).
PAIR_BLOCK = 512


def concat_logins(
    fleet_logins: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """``(concat, offsets)`` as :meth:`FastPredictor.predict_pairs` takes
    them, converted in one call; raises ``OverflowError`` / ``TypeError`` /
    ``ValueError`` when an entry is not a sequence of int64 integers."""
    n = len(fleet_logins)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, fleet_logins), np.int64, n), out=offsets[1:])
    if n and all(
        type(logins) is np.ndarray and logins.dtype == np.int64
        for logins in fleet_logins
    ):
        return np.concatenate(fleet_logins), offsets
    flat = chain.from_iterable(fleet_logins)
    return np.fromiter(flat, dtype=np.int64, count=int(offsets[-1])), offsets


@lru_cache(maxsize=32)
def get_fast_predictor(config: ProRPConfig) -> "FastPredictor":
    """Shared FastPredictor instances keyed by configuration.

    The window/period offset grid depends only on the knobs, so one
    instance serves every database with that configuration -- including
    the per-database daily/weekly variants of adaptive seasonality.
    """
    return FastPredictor(config)
