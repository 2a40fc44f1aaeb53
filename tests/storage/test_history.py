"""Tests for the history store: Algorithms 2 (InsertHistory) and 3
(DeleteOldHistory) semantics, plus the queries Algorithm 4 issues."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage.database import Database
from repro.storage.history import BYTES_PER_TUPLE, HistoryStore
from repro.types import SECONDS_PER_DAY, ActivityTrace, EventType, HistoryEvent, Session

DAY = SECONDS_PER_DAY


class TestInsertHistory:
    def test_insert_start_and_end(self):
        store = HistoryStore()
        assert store.insert_history(100, EventType.ACTIVITY_START) is True
        assert store.insert_history(200, EventType.ACTIVITY_END) is True
        assert store.tuple_count == 2

    def test_duplicate_timestamp_skipped(self):
        """Algorithm 2 inserts only IF NOT EXISTS on time_snapshot."""
        store = HistoryStore()
        assert store.insert_history(100, EventType.ACTIVITY_START) is True
        assert store.insert_history(100, EventType.ACTIVITY_END) is False
        assert store.tuple_count == 1
        events = store.all_events()
        assert events[0].event_type == EventType.ACTIVITY_START

    def test_bulk_load_counts_inserted(self):
        store = HistoryStore()
        events = [
            HistoryEvent(10, EventType.ACTIVITY_START),
            HistoryEvent(20, EventType.ACTIVITY_END),
            HistoryEvent(10, EventType.ACTIVITY_START),  # duplicate second
        ]
        assert store.bulk_load(events) == 2

    def test_login_timestamps_track_only_starts(self):
        store = HistoryStore()
        store.insert_history(10, EventType.ACTIVITY_START)
        store.insert_history(20, EventType.ACTIVITY_END)
        store.insert_history(30, EventType.ACTIVITY_START)
        assert list(store.login_timestamps()) == [10, 30]

    def test_login_timestamps_sorted_on_out_of_order_insert(self):
        store = HistoryStore()
        store.insert_history(30, EventType.ACTIVITY_START)
        assert list(store.login_array()) == [30]
        store.insert_history(10, EventType.ACTIVITY_START)
        store.insert_history(20, EventType.ACTIVITY_START)
        assert list(store.login_timestamps()) == [10, 20, 30]
        # The growth buffer behind login_array() is rebuilt lazily.
        assert list(store.login_array()) == [10, 20, 30]


class TestDeleteOldHistory:
    def test_new_database_not_old(self):
        """A database younger than h days reports old=False, deletes nothing."""
        store = HistoryStore()
        now = 10 * DAY
        store.insert_history(now - 5 * DAY, EventType.ACTIVITY_START)
        result = store.delete_old_history(history_days=28, now=now)
        assert result.old is False
        assert result.deleted == 0
        assert store.tuple_count == 1

    def test_empty_history_not_old(self):
        store = HistoryStore()
        result = store.delete_old_history(history_days=28, now=100 * DAY)
        assert result.old is False
        assert result.min_timestamp is None

    def test_old_database_trims_but_keeps_lifespan_witness(self):
        """Algorithm 3 deletes tuples strictly between MIN and historyStart:
        the oldest tuple stays as the lifespan witness."""
        store = HistoryStore()
        now = 100 * DAY
        oldest = now - 60 * DAY
        stale = [oldest + i * DAY for i in range(1, 30)]  # all older than h=28d
        recent = [now - 10 * DAY, now - 1 * DAY]
        for t in [oldest] + stale + recent:
            store.insert_history(t, EventType.ACTIVITY_START)
        result = store.delete_old_history(history_days=28, now=now)
        assert result.old is True
        assert result.min_timestamp == oldest
        assert store.min_timestamp() == oldest  # witness survives
        remaining = [e.time_snapshot for e in store.all_events()]
        history_start = now - 28 * DAY
        assert all(t == oldest or t >= history_start for t in remaining)
        assert set(recent).issubset(remaining)

    def test_boundary_tuple_at_history_start_survives(self):
        """The range delete is exclusive of historyStart itself."""
        store = HistoryStore()
        now = 100 * DAY
        history_start = now - 28 * DAY
        store.insert_history(history_start - 5 * DAY, EventType.ACTIVITY_START)
        store.insert_history(history_start, EventType.ACTIVITY_END)
        result = store.delete_old_history(history_days=28, now=now)
        assert result.old is True
        assert result.deleted == 0
        assert store.tuple_count == 2

    def test_min_exactly_at_history_start_not_old(self):
        store = HistoryStore()
        now = 100 * DAY
        store.insert_history(now - 28 * DAY, EventType.ACTIVITY_START)
        result = store.delete_old_history(history_days=28, now=now)
        assert result.old is False

    def test_login_view_kept_in_sync_after_trim(self):
        store = HistoryStore()
        now = 100 * DAY
        oldest = now - 40 * DAY
        store.insert_history(oldest, EventType.ACTIVITY_START)
        store.insert_history(now - 30 * DAY, EventType.ACTIVITY_START)
        store.insert_history(now - 5 * DAY, EventType.ACTIVITY_START)
        assert len(store.login_array()) == 3
        store.delete_old_history(history_days=28, now=now)
        assert list(store.login_timestamps()) == [oldest, now - 5 * DAY]
        assert list(store.login_array()) == [oldest, now - 5 * DAY]

    def test_invalid_history_days(self):
        store = HistoryStore()
        with pytest.raises(StorageError):
            store.delete_old_history(history_days=0, now=100)


class TestQueries:
    def test_first_last_login_filters_event_type(self):
        store = HistoryStore()
        store.insert_history(10, EventType.ACTIVITY_END)
        store.insert_history(20, EventType.ACTIVITY_START)
        store.insert_history(30, EventType.ACTIVITY_START)
        store.insert_history(40, EventType.ACTIVITY_END)
        first, last = store.first_last_login(0, 100)
        assert (first, last) == (20, 30)

    def test_first_last_login_empty_window(self):
        store = HistoryStore()
        store.insert_history(20, EventType.ACTIVITY_START)
        assert store.first_last_login(30, 40) == (None, None)

    def test_first_last_login_inclusive_bounds(self):
        store = HistoryStore()
        store.insert_history(10, EventType.ACTIVITY_START)
        store.insert_history(20, EventType.ACTIVITY_START)
        assert store.first_last_login(10, 20) == (10, 20)

    def test_events_in_range(self):
        store = HistoryStore()
        for t in [5, 15, 25]:
            store.insert_history(t, EventType.ACTIVITY_START)
        events = store.events_in_range(10, 30)
        assert [e.time_snapshot for e in events] == [15, 25]

    def test_size_bytes_paper_accounting(self):
        """Two 64-bit integers per tuple (Section 9.3)."""
        store = HistoryStore()
        for t in range(100):
            store.insert_history(t, EventType.ACTIVITY_START)
        assert store.size_bytes() == 100 * BYTES_PER_TUPLE == 1600

    def test_store_reattaches_to_existing_database(self):
        """History moves with the database during load balancing (§3.3):
        re-opening the same Database must see the same rows."""
        database = Database("tenant-1")
        store = HistoryStore(database)
        store.insert_history(10, EventType.ACTIVITY_START)
        store.insert_history(20, EventType.ACTIVITY_END)
        reopened = HistoryStore(database)
        assert reopened.tuple_count == 2
        assert list(reopened.login_timestamps()) == [10]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=80 * DAY),
        unique=True,
        min_size=1,
        max_size=80,
    ),
    st.integers(min_value=80 * DAY, max_value=120 * DAY),
    st.integers(min_value=1, max_value=40),
)
def test_delete_old_history_properties(timestamps, now, h):
    """Post-conditions of Algorithm 3 for arbitrary histories."""
    store = HistoryStore()
    for t in timestamps:
        store.insert_history(t, EventType.ACTIVITY_START)
    oldest = min(timestamps)
    history_start = now - h * DAY
    result = store.delete_old_history(history_days=h, now=now)
    assert result.old == (oldest < history_start)
    remaining = [e.time_snapshot for e in store.all_events()]
    # The oldest tuple always survives.
    assert oldest in remaining
    # Nothing strictly between oldest and history_start survives.
    assert not [t for t in remaining if oldest < t < history_start]
    # Everything at or after history_start survives.
    expected_recent = sorted(t for t in timestamps if t >= history_start)
    assert [t for t in remaining if t >= history_start] == expected_recent
    # The login view matches the table contents.
    assert list(store.login_timestamps()) == sorted(remaining)


def test_trace_events_round_trip():
    """ActivityTrace.events() loads into the store losslessly."""
    trace = ActivityTrace(
        "db", [Session(10, 20), Session(30, 45), Session(50, 60)]
    )
    store = HistoryStore()
    store.bulk_load(trace.events())
    assert store.tuple_count == 6
    assert list(store.login_timestamps()) == [10, 30, 50]
    assert store.first_last_login(25, 55) == (30, 50)
