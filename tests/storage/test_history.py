"""Tests for the history store: Algorithms 2 (InsertHistory) and 3
(DeleteOldHistory) semantics, plus the queries Algorithm 4 issues."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage.database import Database
from repro.storage.history import BYTES_PER_TUPLE, HistoryStore, LeanHistory
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


def _loaded(events, preload=(), bulk=True):
    """A store holding ``preload`` (inserted one by one), then ``events``
    through ``bulk_load`` or through the per-event loop; returns the store,
    the load's return value and the OBS insert counters of the load."""
    from repro.observability.runtime import OBS, observed
    from repro.observability.tracer import NULL_TRACER

    store = HistoryStore()
    for event in preload:
        store.insert_history(event.time_snapshot, event.event_type)
    with observed(tracer=NULL_TRACER):
        if bulk:
            loaded = store.bulk_load(iter(events))
        else:
            loaded = sum(
                store.insert_history(e.time_snapshot, e.event_type) for e in events
            )
        counters = {
            name: OBS.metrics.counter(name).value
            for name in ("history.inserts", "btree.inserts")
        }
    return store, loaded, counters


def _state(store):
    return (
        store.all_events(),
        store.login_array().tolist(),
        list(store.login_timestamps()),
        store.tuple_count,
        store.min_timestamp(),
        store.max_timestamp(),
    )


_events = st.lists(
    st.builds(
        HistoryEvent,
        st.integers(min_value=0, max_value=400),
        st.sampled_from([EventType.ACTIVITY_START, EventType.ACTIVITY_END]),
    ),
    max_size=300,
)


@settings(max_examples=150, deadline=None)
@given(_events, st.booleans(), st.lists(st.integers(0, 400), max_size=5))
def test_bulk_load_equals_per_event_loop(events, ascending, preload_times):
    """Same return value, rows, logins and OBS counters as Algorithm 2 per
    event: sorted input with duplicate timestamps (the first wins), input
    out of order, and a store that already holds rows."""
    if ascending:
        events = sorted(events, key=lambda e: e.time_snapshot)
    preload = [HistoryEvent(t, EventType.ACTIVITY_START) for t in preload_times]
    bulk, bulk_loaded, bulk_counters = _loaded(events, preload)
    loop, loop_loaded, loop_counters = _loaded(events, preload, bulk=False)
    assert bulk_loaded == loop_loaded
    assert _state(bulk) == _state(loop)
    assert bulk_counters == loop_counters
    bulk.table._clustered.check_invariants()
    # Both keep behaving alike afterwards (Algorithms 2 and 3).
    for store in (bulk, loop):
        store.insert_history(200, EventType.ACTIVITY_START)
        store.insert_history(401, EventType.ACTIVITY_START)
        store.delete_old_history(history_days=1, now=DAY + 100)
    assert _state(bulk) == _state(loop)


def test_bulk_load_builds_sorted_input_without_per_event_inserts(monkeypatch):
    def per_event(*_args):
        raise AssertionError("sorted input into an empty store replayed events")

    events = [
        HistoryEvent(10, EventType.ACTIVITY_START),
        HistoryEvent(20, EventType.ACTIVITY_END),
        HistoryEvent(20, EventType.ACTIVITY_START),
        HistoryEvent(30, EventType.ACTIVITY_START),
    ]
    store = HistoryStore()
    monkeypatch.setattr(HistoryStore, "insert_history", per_event)
    assert store.bulk_load(events) == 3
    assert [e.event_type for e in store.all_events()] == [
        EventType.ACTIVITY_START,
        EventType.ACTIVITY_END,
        EventType.ACTIVITY_START,
    ]
    assert store.login_array().tolist() == [10, 30]


def test_bulk_load_validates_every_row_before_loading():
    from types import SimpleNamespace

    from repro.errors import SchemaError

    store = HistoryStore()
    for bad in (
        SimpleNamespace(time_snapshot=None, event_type=EventType.ACTIVITY_START),
        SimpleNamespace(time_snapshot=True, event_type=EventType.ACTIVITY_START),
        SimpleNamespace(time_snapshot=20, event_type=None),
    ):
        with pytest.raises((SchemaError, TypeError)):
            store.bulk_load([HistoryEvent(10, EventType.ACTIVITY_START), bad])
        assert store.tuple_count == 0


# -- Warm start: one builder for both engines and the lean view -------------

_SIM_START = 3 * DAY
_gaps = st.sampled_from([0, 0, 1, 600, DAY // 2, DAY])
_durations = st.sampled_from([1, 60, 3600, DAY // 3, DAY])


@st.composite
def _warm_traces(draw):
    """Sorted sessions over [0, 5 days): touching ones (gap 0), ones
    straddling ``sim_start`` or ending right at it, ones wholly before the
    retention window, and databases with nothing before ``sim_start``."""
    traces = []
    t = 0
    for i in range(draw(st.integers(1, 5))):
        # Starting at the previous database's last end puts equal
        # timestamps on both sides of a database boundary.
        t = draw(
            st.sampled_from(
                [0, DAY, _SIM_START - 3600, _SIM_START - 600, _SIM_START, 4 * DAY, t]
            )
        )
        sessions = []
        for _ in range(draw(st.integers(0, 8))):
            start = t + draw(_gaps)
            t = start + draw(_durations)
            sessions.append(Session(start, t))
        traces.append(ActivityTrace(f"db-{i}", sessions))
    return traces


def _closed_at_start(sessions, traces):
    """Per database, the engine's ``session_idx`` after ``start``: every
    session ending by ``sim_start`` is closed."""
    offsets = sessions[0]
    return [
        int(offsets[d]) + sum(session.end <= _SIM_START for session in trace.sessions)
        for d, trace in enumerate(traces)
    ]


def _replayed(trace, history_days):
    """Algorithm 2 for every event before sim_start, then Algorithm 3."""
    store = HistoryStore()
    for event in trace.events():
        if event.time_snapshot < _SIM_START:
            store.insert_history(event.time_snapshot, event.event_type)
    store.delete_old_history(history_days, _SIM_START)
    return store


@settings(max_examples=150, deadline=None)
@given(_warm_traces(), st.integers(1, 3))
def test_warm_start_equals_insert_then_trim(traces, history_days):
    """``_warm_history`` (the actors and the reference predictor) and
    ``LeanHistory`` hold exactly what inserting every pre-``sim_start``
    event and trimming at ``sim_start`` leaves: rows, row count, logins,
    the witness and its login flag."""
    from repro.simulation.region import _warm_history, sessions_to_csr

    sessions = sessions_to_csr([trace.sessions for trace in traces])
    stores = _warm_history(sessions, _SIM_START, history_days)
    lean = LeanHistory(*sessions, _SIM_START, history_days)
    closed = _closed_at_start(sessions, traces)
    for d, trace in enumerate(traces):
        reference = _replayed(trace, history_days)
        expected = reference.all_events()
        assert stores[d].all_events() == expected
        assert stores[d].login_array().tolist() == reference.login_array().tolist()
        assert list(stores[d].login_timestamps()) == list(reference.login_timestamps())
        assert lean.login_array(d).tolist() == reference.login_array().tolist()
        assert lean.tuple_count(d, closed[d]) == reference.tuple_count
        assert lean.min_ts[d] == (expected[0].time_snapshot if expected else -1)
        assert lean.last_ts[d] == (expected[-1].time_snapshot if expected else -1)
        assert lean.witness_login[d] == bool(
            expected and expected[0].event_type is EventType.ACTIVITY_START
        )
        # ... and they keep trimming alike (Algorithm 3 a day later).
        now = _SIM_START + DAY
        old = reference.delete_old_history(history_days, now).old
        assert stores[d].delete_old_history(history_days, now).old == old
        assert lean.trim(d, history_days, now) == old
        assert lean.login_array(d).tolist() == reference.login_array().tolist()
        assert stores[d].login_array().tolist() == reference.login_array().tolist()
        assert lean.tuple_count(d, closed[d]) == reference.tuple_count


@st.composite
def _live_histories(draw):
    """``(traces, history_days, ops)``: a warm fleet plus the live calls a
    columnar run makes on it, in time order -- Algorithm 2 inserts of
    every session start and end after ``sim_start`` (touching sessions
    repeat a timestamp) and Algorithm 3 trims at rising ``now``s, many of
    them placing ``historyStart`` on a login or one second either side."""
    traces = draw(_warm_traces())
    history_days = draw(st.integers(1, 3))
    ops, logins = [], []
    for d, trace in enumerate(traces):
        for session in trace.sessions:
            logins.append(session.start)
            if session.start > _SIM_START:
                ops.append((session.start, 1, d, EventType.ACTIVITY_START))
            if session.end > _SIM_START:
                ops.append((session.end, 1, d, EventType.ACTIVITY_END))
    span = history_days * DAY
    on_a_login = [
        t + span + dt for t in logins for dt in (-1, 0, 1)
        if t + span + dt >= _SIM_START
    ]
    nows = st.integers(_SIM_START, _SIM_START + 3 * DAY)
    if on_a_login:
        nows = nows | st.sampled_from(on_a_login)
    for now in draw(st.lists(nows, max_size=12)):
        # A trim tied with inserts runs before (0) or after (2) them.
        tie = draw(st.sampled_from([0, 2]))
        ops.append((now, tie, draw(st.integers(0, len(traces) - 1)), None))
    # Stable sort: each database's inserts keep their order.
    ops.sort(key=lambda op: op[:2])
    return traces, history_days, [(t, d, kind) for t, _, d, kind in ops]


@settings(max_examples=200, deadline=None)
@given(_live_histories())
def test_lean_live_path_equals_insert_and_trim(case):
    """``LeanHistory.record`` / ``trim`` over a warm start hold what
    Algorithm 2 inserts and Algorithm 3 trims leave in a ``HistoryStore``
    after every step: the ``old`` flag, ``older_than``, the logins and
    the row count (a session closes when its logout is recorded)."""
    from repro.simulation.columnar import StoreHistory
    from repro.simulation.region import sessions_to_csr

    traces, history_days, ops = case
    sessions = sessions_to_csr([trace.sessions for trace in traces])
    lean = LeanHistory(*sessions, _SIM_START, history_days)
    reference = StoreHistory([_replayed(trace, history_days) for trace in traces])
    closed = _closed_at_start(sessions, traces)
    for t, d, event_type in ops:
        if event_type is None:
            assert lean.trim(d, history_days, t) == reference.trim(d, history_days, t)
        else:
            lean.record(d, t, event_type)
            reference.record(d, t, event_type)
            closed[d] += event_type is EventType.ACTIVITY_END
        history_start = t - history_days * DAY
        rows = np.arange(len(traces))
        old = lean.older_than(rows, np.full(len(traces), history_start))
        for db in range(len(traces)):
            oldest = reference.store(db).min_timestamp()
            assert old[db] == (oldest is not None and oldest < history_start)
            assert lean.login_array(db).tolist() == list(reference.login_timestamps(db))
            assert lean.tuple_count(db, closed[db]) == reference.store(db).tuple_count


def test_bulk_load_rows_check_time_type_and_sign():
    from repro.errors import SchemaError, TraceError

    for bad, error in (((20.5, 0), SchemaError), ((-5, 1), TraceError)):
        store = HistoryStore()
        with pytest.raises(error):
            store.bulk_load([(10, 1), bad])
        assert store.tuple_count == 0
    store = HistoryStore()
    assert store.bulk_load([(10, 1), (20, 0), (20, 1), (30, 1)]) == 3
    assert store.login_array().tolist() == [10, 30]


def test_warm_history_checks_session_times():
    """A trace time that is not an integer still fails as the BIGINT
    column would, and a negative one as :class:`HistoryEvent` would."""
    from repro.errors import SchemaError, TraceError
    from repro.simulation.region import _warm_history, sessions_to_csr

    with pytest.raises(SchemaError):
        sessions_to_csr([[Session(10, 20.5)]])
    with pytest.raises(TraceError):
        _warm_history(sessions_to_csr([[Session(-10, 20)]]), DAY, 1)


def test_fleet_module_reexports_the_array_history():
    """Wrapping ``repro.simulation.fleet.LeanHistory``'s methods wraps the
    class both columnar tiers run."""
    from repro.simulation import fleet

    assert fleet.LeanHistory is LeanHistory
