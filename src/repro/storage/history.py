"""The per-database history store ``sys.pause_resume_history``.

Implements the stored procedures of the paper over the storage substrate:

* :meth:`HistoryStore.insert_history` -- Algorithm 2 (InsertHistory): insert
  a (time_snapshot, event_type) tuple unless the timestamp already exists.
* :meth:`HistoryStore.delete_old_history` -- Algorithm 3 (DeleteOldHistory):
  trim history older than ``h`` days while keeping the oldest tuple as the
  database's lifespan witness, and report whether the database is "old"
  (existed at least ``h`` days, hence predictable).

:func:`warm_start_events` computes what the two leave behind at the start
of a simulation, for a whole fleet at once; every warm history is built
from it.

The store also exposes the range aggregates Algorithm 4 issues (first/last
login within a window of a previous day) and a sorted login-timestamp view
consumed by the vectorised predictor.

For the prediction hot path the store additionally maintains an
**amortised growth buffer** over the login timestamps
(:meth:`HistoryStore.login_array`): in-order logins append in O(1) into a
preallocated ``numpy`` array, so the vectorised predictor gets a ready
``int64`` view instead of converting a Python list per call.  Out-of-order
inserts and trims that actually delete logins mark the buffer for a lazy
rebuild.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StorageError, TraceError
from repro.observability.runtime import OBS
from repro.storage.database import Database
from repro.storage.schema import history_schema
from repro.storage.table import Table
from repro.types import SECONDS_PER_DAY, EventType, HistoryEvent

#: Bytes per history tuple: two 64-bit integers (Section 9.3).
BYTES_PER_TUPLE = 16


@dataclass(frozen=True)
class DeleteOldHistoryResult:
    """Output of Algorithm 3: the ``@old`` flag plus bookkeeping."""

    #: True if the database existed before the start of recent history,
    #: i.e. accumulated at least ``h`` days of lifespan (Algorithm 3 line 7).
    old: bool
    #: Number of tuples permanently deleted (lines 8-10).
    deleted: int
    #: Minimal timestamp in the history before deletion (lifespan witness).
    min_timestamp: Optional[int]


def _ascending(rows: Sequence[Tuple[int, int]]) -> Optional[List[Tuple[int, int]]]:
    """``rows`` with the later of equal timestamps dropped, or None when a
    timestamp goes backwards (times are non-negative)."""
    kept: List[Tuple[int, int]] = []
    last = -1
    for row in rows:
        if row[0] > last:
            kept.append(row)
            last = row[0]
        elif row[0] < last:
            return None
    return kept


def warm_start_events(
    offsets: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    sim_start: int,
    history_days: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every database's history at ``sim_start``, from CSR sessions.

    Database ``d`` owns the sorted, non-overlapping sessions
    ``starts/ends[offsets[d]:offsets[d + 1]]``.  Returns ``(bounds, times,
    types)``: its warm rows are ``times/types[bounds[d]:bounds[d + 1]]``,
    ascending -- what inserting each of its events before ``sim_start``
    through Algorithm 2 and then trimming with Algorithm 3 at ``sim_start``
    leaves behind:

    * the oldest event before ``sim_start`` (the lifespan witness);
    * every event in ``[sim_start - h days, sim_start)``;
    * of equal timestamps (a session starting where the last one ended),
      the first only.
    """
    n_sessions = len(starts)
    times = np.empty(2 * n_sessions, dtype=np.int64)
    times[0::2] = starts
    times[1::2] = ends
    types = np.tile([EventType.ACTIVITY_START, EventType.ACTIVITY_END], n_sessions)
    bounds = 2 * np.asarray(offsets, dtype=np.int64)
    heads = bounds[:-1][bounds[:-1] < bounds[1:]]
    keep = (times < sim_start) & (times >= sim_start - history_days * SECONDS_PER_DAY)
    keep[heads] = times[heads] < sim_start
    # Sessions are sorted, so equal timestamps are neighbours and share
    # their window test; the witness is strictly older than its successor.
    repeat = np.zeros(len(times), dtype=bool)
    repeat[1:] = times[1:] == times[:-1]
    repeat[heads] = False
    keep &= ~repeat
    kept = np.zeros(len(times) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    return kept[bounds], times[keep], types[keep]


class HistoryStore:
    """Customer-activity history of a single serverless database."""

    TABLE_NAME = "sys.pause_resume_history"

    def __init__(self, database: Optional[Database] = None):
        if database is None:
            database = Database("tenant")
        self.database = database
        if self.TABLE_NAME in database:
            self._table = database.table(self.TABLE_NAME)
        else:
            self._table = database.create_table(history_schema())
        # Sorted login timestamps (event_type = 1), kept in lockstep with the
        # table so the vectorised predictor avoids a scan per prediction.
        self._logins: List[int] = [
            row["time_snapshot"]
            for row in self._table.scan(lambda r: r["event_type"] == 1)
        ]
        # Amortised growth buffer over ``_logins``: valid prefix of length
        # ``_login_len``; ``_login_dirty`` forces a rebuild from the list
        # after an out-of-order insert or a trim that deleted logins.
        self._login_buf = np.empty(max(16, len(self._logins)), dtype=np.int64)
        self._login_len = len(self._logins)
        self._login_buf[: self._login_len] = self._logins
        self._login_dirty = False

    # ------------------------------------------------------------------
    # Algorithm 2: InsertHistory
    # ------------------------------------------------------------------

    def insert_history(self, time_snapshot: int, event_type: EventType) -> bool:
        """Insert one activity event; returns False when the timestamp is
        already present (the uniqueness guard of Algorithm 2 lines 3-6)."""
        inserted = self._table.insert_if_absent(
            {"time_snapshot": time_snapshot, "event_type": int(event_type)}
        )
        if inserted and event_type == EventType.ACTIVITY_START:
            if not self._logins or time_snapshot >= self._logins[-1]:
                self._logins.append(time_snapshot)
                self._append_login_buf(time_snapshot)
            else:
                bisect.insort(self._logins, time_snapshot)
                self._login_dirty = True
        if OBS.enabled and inserted:
            OBS.metrics.counter("history.inserts").inc()
        return inserted

    def bulk_load(self, rows: Iterable[Tuple[int, int]]) -> int:
        """Load many ``(time_snapshot, event_type)`` rows (a
        :class:`HistoryEvent` unpacks into one) to warm-start a simulation;
        returns the number actually inserted after the uniqueness guard.

        Every row is checked before anything is stored: a non-integer time
        raises :class:`SchemaError` (the BIGINT column) and a negative one
        :class:`TraceError` (as :class:`HistoryEvent` does).  Into an empty
        store, time-ascending rows (equal timestamps allowed: the first one
        wins, as under Algorithm 2's guard) build the clustered B-tree
        bottom-up in O(n).  Any other input replays :meth:`insert_history`
        per row; both leave the same rows, logins and counters behind.
        """
        time_column = self._table.schema.columns[0]
        checked: List[Tuple[int, int]] = []
        for t, event_type in rows:
            if type(t) is not int:
                t = time_column.validate(t)
            if t < 0:
                raise TraceError(f"time_snapshot must be non-negative, got {t}")
            checked.append((t, int(event_type)))
        loaded = _ascending(checked) if self.tuple_count == 0 else None
        if loaded is None:
            return sum(self.insert_history(t, event_type) for t, event_type in checked)
        self._table.load_sorted(loaded)
        login = int(EventType.ACTIVITY_START)
        self._logins = [t for t, event_type in loaded if event_type == login]
        self._login_dirty = True
        if OBS.enabled and loaded:
            OBS.metrics.counter("history.inserts").inc(len(loaded))
        return len(loaded)

    # ------------------------------------------------------------------
    # Algorithm 3: DeleteOldHistory
    # ------------------------------------------------------------------

    def delete_old_history(self, history_days: int, now: int) -> DeleteOldHistoryResult:
        """Trim history to the last ``history_days`` days.

        Exactly as Algorithm 3: compute ``historyStart = now - h*24*60*60``;
        if the minimal timestamp predates it the database is old and every
        tuple strictly between the minimal timestamp and ``historyStart`` is
        deleted -- the oldest tuple survives as the lifespan witness.
        """
        if history_days <= 0:
            raise StorageError(f"history_days must be positive, got {history_days}")
        history_start = now - history_days * SECONDS_PER_DAY
        min_timestamp = self._table.min_key()
        if min_timestamp is None:
            return DeleteOldHistoryResult(old=False, deleted=0, min_timestamp=None)
        if min_timestamp >= history_start:
            return DeleteOldHistoryResult(
                old=False, deleted=0, min_timestamp=min_timestamp
            )
        deleted = self._table.delete_key_range(
            min_timestamp, history_start, include_lo=False, include_hi=False
        )
        if deleted:
            lo = bisect.bisect_right(self._logins, min_timestamp)
            hi = bisect.bisect_left(self._logins, history_start)
            if hi > lo:
                del self._logins[lo:hi]
                self._login_dirty = True
        if OBS.enabled:
            OBS.metrics.counter("history.trimmed_tuples").inc(deleted)
        return DeleteOldHistoryResult(
            old=True, deleted=deleted, min_timestamp=min_timestamp
        )

    # ------------------------------------------------------------------
    # Queries used by Algorithm 4 and the overhead experiments
    # ------------------------------------------------------------------

    def first_last_login(
        self, window_start: int, window_end: int
    ) -> Tuple[Optional[int], Optional[int]]:
        """MIN/MAX login timestamp with ``window_start <= t <= window_end``.

        This is the inner range query of Algorithm 4 (lines 19-24), answered
        through the clustered index in O(log n + m).
        """
        first: Optional[int] = None
        last: Optional[int] = None
        rows_scanned = 0
        for row in self._table.key_range(window_start, window_end):
            rows_scanned += 1
            if row["event_type"] != int(EventType.ACTIVITY_START):
                continue
            if first is None:
                first = row["time_snapshot"]
            last = row["time_snapshot"]
        if OBS.enabled:
            OBS.metrics.counter("history.range_queries").inc()
            OBS.metrics.counter("history.rows_scanned").inc(rows_scanned)
        return first, last

    def login_timestamps(self) -> Sequence[int]:
        """All login timestamps in ascending order (vectorised predictor)."""
        return self._logins

    def _append_login_buf(self, time_snapshot: int) -> None:
        """O(1) amortised append of an in-order login into the buffer."""
        if self._login_dirty:
            return
        if self._login_len == len(self._login_buf):
            grown = np.empty(len(self._login_buf) * 2, dtype=np.int64)
            grown[: self._login_len] = self._login_buf[: self._login_len]
            self._login_buf = grown
        self._login_buf[self._login_len] = time_snapshot
        self._login_len += 1

    def login_array(self) -> np.ndarray:
        """Sorted login timestamps as an ``int64`` array view.

        Returns a view into the internal growth buffer -- callers must not
        mutate it and must not hold it across further history mutations.
        Rebuilt lazily from the list only after out-of-order inserts or
        login-deleting trims.
        """
        if self._login_dirty or self._login_len != len(self._logins):
            if len(self._logins) > len(self._login_buf):
                self._login_buf = np.empty(
                    max(16, 2 * len(self._logins)), dtype=np.int64
                )
            self._login_len = len(self._logins)
            self._login_buf[: self._login_len] = self._logins
            self._login_dirty = False
        return self._login_buf[: self._login_len]

    def all_events(self) -> List[HistoryEvent]:
        """Every stored event in time order."""
        return [
            HistoryEvent(row["time_snapshot"], EventType(row["event_type"]))
            for row in self._table.scan()
        ]

    # ------------------------------------------------------------------
    # Overhead metrics (Figure 10(a-b))
    # ------------------------------------------------------------------

    @property
    def tuple_count(self) -> int:
        return self._table.row_count

    def size_bytes(self) -> int:
        """History size counting two 64-bit integers per tuple."""
        return self.tuple_count * BYTES_PER_TUPLE

    def min_timestamp(self) -> Optional[int]:
        return self._table.min_key()

    def max_timestamp(self) -> Optional[int]:
        return self._table.max_key()

    @property
    def table(self) -> Table:
        """The underlying table (exposed for the SQL-procedure variants)."""
        return self._table
