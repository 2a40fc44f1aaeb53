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

:class:`LeanHistory` runs Algorithms 2 and 3 for a whole fleet over flat
arrays (login cursors instead of a table); the simulation engines use it
wherever only the vectorised predictor reads the history, and
:class:`LeanHistoryView` reads one of its databases back like a store.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError, StorageError, TraceError
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


class LeanHistory:
    """Every database's history as login cursors over one flat array.

    Replays exactly what one warm :class:`HistoryStore` per database would
    hold (the same :func:`warm_start_events` rows, Algorithm 2's
    timestamp-dedup insert, Algorithm 3's witness-preserving trim), but
    the only state per database is a handful of scalars into a shared
    ``int64`` login array:

    * ``top[d]``: logins inserted so far (warm prefix + live appends);
    * ``k[d]``: trim cursor -- logins below it (except the witness) have
      been deleted;
    * ``witness_login[d]``: whether the surviving oldest tuple (the
      lifespan witness Algorithm 3 keeps) is a login, in which case it
      heads the login view regardless of ``k``;
    * ``cut[d]``: the ``historyStart`` of the last trim that deleted
      (``sim_start - h`` before any) -- every row below it but the witness
      is gone, which is all :meth:`tuple_count` needs besides the session
      ends, so logouts are never stored.

    A live insert asserts the appended login lands where the
    precomputed capacity expects it -- divergence from the event stream
    fails loudly instead of silently skewing predictions.

    The per-event methods index ``_<name>``, a memoryview of the numpy
    column ``<name>``; :meth:`login_array` slices the arrays itself.
    """

    _COLUMNS = (
        "has_event", "witness_login", "min_ts", "last_ts", "top", "k", "cut",
        "off", "logins",
    )

    def __init__(
        self,
        sess_offsets: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        sim_start: int,
        history_days: int,
    ):
        n = len(sess_offsets) - 1
        self.n = n
        bounds, times, types = warm_start_events(
            sess_offsets, starts, ends, sim_start, history_days
        )
        counts = np.diff(bounds)
        self.has_event = counts > 0
        heads = bounds[:-1][self.has_event]
        is_login = types == int(EventType.ACTIVITY_START)
        self.witness_login = np.zeros(n, dtype=bool)
        self.witness_login[self.has_event] = is_login[heads]
        self.min_ts = np.full(n, -1, dtype=np.int64)
        self.min_ts[self.has_event] = times[heads]
        self.last_ts = np.full(n, -1, dtype=np.int64)
        self.last_ts[self.has_event] = times[bounds[1:][self.has_event] - 1]
        self.k = self.witness_login.astype(np.int64)
        self.cut = np.full(
            n, sim_start - history_days * SECONDS_PER_DAY, dtype=np.int64
        )
        login_owner = np.repeat(np.arange(n), counts)[is_login]
        self.top = np.bincount(login_owner, minlength=n).astype(np.int64)

        # Capacity per database: warm logins + live session starts after
        # sim_start (the only candidates for further login inserts).
        session_owner = np.repeat(np.arange(n), np.diff(sess_offsets))
        capacity = self.top + np.bincount(
            session_owner[starts > sim_start], minlength=n
        )
        self.off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(capacity, out=self.off[1:])
        self.logins = np.empty(int(self.off[-1]), dtype=np.int64)
        first_login = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.top, out=first_login[1:])
        rank = np.arange(len(login_owner)) - first_login[login_owner]
        self.logins[self.off[login_owner] + rank] = times[is_login]
        for name in self._COLUMNS:
            setattr(self, f"_{name}", getattr(self, name).data)
        # The session arrays are the caller's; only tuple_count reads them.
        self.sim_start = sim_start
        self._sess_offsets = np.ascontiguousarray(sess_offsets, dtype=np.int64).data
        self._ends = np.ascontiguousarray(ends, dtype=np.int64).data

    def nbytes(self) -> int:
        return sum(getattr(self, name).nbytes for name in self._COLUMNS)

    def record(self, d: int, t: int, event_type: EventType) -> None:
        if t == self._last_ts[d]:
            return  # Algorithm 2's uniqueness guard (lines 3-6)
        self._last_ts[d] = t
        is_start = event_type == EventType.ACTIVITY_START
        if not self._has_event[d]:
            self._has_event[d] = True
            self._min_ts[d] = t
            self._witness_login[d] = is_start
            if is_start:
                self._k[d] = 1
        if is_start:
            pos = self._off[d] + self._top[d]
            if pos >= self._off[d + 1]:
                raise SimulationError(
                    f"db[{d}]: login at t={t} exceeds the precomputed "
                    f"history capacity -- event stream diverged from the "
                    f"session arrays"
                )
            self._logins[pos] = t
            self._top[d] += 1

    def trim(self, d: int, history_days: int, now: int) -> bool:
        history_start = now - history_days * SECONDS_PER_DAY
        if not self._has_event[d] or self._min_ts[d] >= history_start:
            return False
        self._cut[d] = history_start
        base = self._off[d]
        k = self._k[d]
        top = self._top[d]
        if k < top:
            # Logins strictly between the witness and history_start are
            # deleted; everything at or past the cursor exceeds min_ts
            # already (timestamps are unique), so one bisect suffices.
            self._k[d] = (
                bisect.bisect_left(
                    self._logins, history_start, base + k, base + top
                )
                - base
            )
        return True

    def older_than(self, ds: np.ndarray, history_starts: np.ndarray) -> np.ndarray:
        """The ``old`` flag a trim of row ``ds[i]`` at ``history_starts[i]``
        would return, for every ``i`` at once, without moving a cursor."""
        return self.has_event[ds] & (self.min_ts[ds] < history_starts)

    def tuple_count(self, d: int, closed: int) -> int:
        """The rows ``d``'s :class:`HistoryStore` would hold once its
        sessions ``[sess_offsets[d], closed)`` have ended (the engine's
        ``session_idx[d]``).

        They are the witness plus every row at or past ``cut[d]``: the
        logins past the trim cursor and the ends of the closed sessions.
        Ends are unique, sorted and never a duplicate Algorithm 2 drops
        (a login tied with the previous logout is the one dropped), so
        one bisect counts them -- less one at exactly ``sim_start``: that
        session closed before the run, past the warm rows' reach.
        """
        if not self._has_event[d]:
            return 0
        lo = max(self._cut[d], self._min_ts[d] + 1)
        ends = self._ends
        first = bisect.bisect_left(ends, lo, self._sess_offsets[d], closed)
        n_ends = closed - first
        if lo <= self.sim_start:
            at = bisect.bisect_left(ends, self.sim_start, first, closed)
            n_ends -= at < closed and ends[at] == self.sim_start
        return 1 + self._top[d] - self._k[d] + n_ends

    def login_array(self, d: int) -> np.ndarray:
        base = self._off[d]
        top = self._top[d]
        k = self._k[d]
        if self._witness_login[d]:
            if k <= 1:
                return self.logins[base : base + top]
            return np.concatenate(
                (self.logins[base : base + 1], self.logins[base + k : base + top])
            )
        return self.logins[base + k : base + top]

    def login_timestamps(self, d: int) -> Sequence[int]:
        return self.login_array(d).tolist()

    def store(self, d: int):
        raise SimulationError(
            "lean history has no HistoryStore objects; the reference "
            "predictor reads the B-tree history (StoreHistory)"
        )


class LeanHistoryView:
    """One database of a :class:`LeanHistory` after a run, read like its
    :class:`HistoryStore`: the login view and Figure 10's tuple count and
    size."""

    __slots__ = ("_history", "_d", "_closed")

    def __init__(self, history: LeanHistory, d: int, closed: int):
        self._history = history
        self._d = d
        self._closed = closed

    def login_timestamps(self) -> Sequence[int]:
        return self._history.login_timestamps(self._d)

    @property
    def tuple_count(self) -> int:
        return self._history.tuple_count(self._d, self._closed)

    def size_bytes(self) -> int:
        """History size counting two 64-bit integers per tuple."""
        return self.tuple_count * BYTES_PER_TUPLE
