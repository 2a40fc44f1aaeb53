"""Tests for core value types and the Table 1 configuration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG, ProRPConfig, Seasonality
from repro.errors import ConfigError, TraceError
from repro.types import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_MINUTE,
    ActivityTrace,
    AllocationState,
    EventType,
    HistoryEvent,
    PredictedActivity,
    Session,
    merge_sessions,
)

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR


class TestSession:
    def test_duration_and_contains(self):
        session = Session(10, 20)
        assert session.duration == 10
        assert session.contains(10) and session.contains(19)
        assert not session.contains(20) and not session.contains(9)

    def test_invalid_session_rejected(self):
        with pytest.raises(TraceError):
            Session(10, 10)
        with pytest.raises(TraceError):
            Session(10, 5)


class TestHistoryEvent:
    def test_negative_timestamp_rejected(self):
        with pytest.raises(TraceError):
            HistoryEvent(-1, EventType.ACTIVITY_START)

    def test_event_type_values_match_paper(self):
        assert int(EventType.ACTIVITY_START) == 1
        assert int(EventType.ACTIVITY_END) == 0


class TestPredictedActivity:
    def test_sentinel(self):
        none = PredictedActivity.none()
        assert none.is_empty
        assert none.start == none.end == 0
        assert none.confidence == 0.0

    def test_real_prediction_not_empty(self):
        assert not PredictedActivity(100, 200, 0.5).is_empty


class TestAllocationState:
    def test_allocated_flags(self):
        assert AllocationState.ACTIVE.allocated
        assert AllocationState.IDLE_ALLOCATED.allocated
        assert not AllocationState.PHYSICALLY_PAUSED.allocated
        assert not AllocationState.RESUMING.allocated


class TestActivityTrace:
    def test_overlapping_sessions_rejected(self):
        with pytest.raises(TraceError):
            ActivityTrace("t", [Session(0, 10), Session(5, 15)])

    def test_unsorted_sessions_rejected(self):
        with pytest.raises(TraceError):
            ActivityTrace("t", [Session(10, 20), Session(0, 5)])

    def test_created_after_first_session_rejected(self):
        with pytest.raises(TraceError):
            ActivityTrace("t", [Session(0, 10)], created_at=5)

    def test_events_alternate(self):
        trace = ActivityTrace("t", [Session(0, 10), Session(20, 30)])
        events = trace.events()
        assert [e.event_type for e in events] == [
            EventType.ACTIVITY_START,
            EventType.ACTIVITY_END,
            EventType.ACTIVITY_START,
            EventType.ACTIVITY_END,
        ]

    def test_idle_intervals(self):
        trace = ActivityTrace("t", [Session(0, 10), Session(20, 30), Session(30, 40)])
        assert trace.idle_intervals() == [Session(10, 20)]

    def test_demand_at(self):
        trace = ActivityTrace("t", [Session(10, 20)])
        assert trace.demand_at(15) == 1
        assert trace.demand_at(5) == 0
        assert trace.demand_at(20) == 0

    def test_active_seconds_clipping(self):
        trace = ActivityTrace("t", [Session(0, 100), Session(200, 300)])
        assert trace.active_seconds(50, 250) == 50 + 50

    def test_span_empty_trace(self):
        trace = ActivityTrace("t", [], created_at=42)
        assert trace.span == (42, 42)


class TestMergeSessions:
    def test_merges_overlaps(self):
        merged = merge_sessions([Session(0, 10), Session(5, 20), Session(30, 40)])
        assert merged == [Session(0, 20), Session(30, 40)]

    def test_merges_touching_with_gap(self):
        merged = merge_sessions([Session(0, 10), Session(12, 20)], gap=2)
        assert merged == [Session(0, 20)]

    def test_keeps_disjoint(self):
        merged = merge_sessions([Session(0, 10), Session(12, 20)])
        assert len(merged) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.integers(min_value=1, max_value=100),
            ),
            max_size=30,
        )
    )
    def test_merge_properties(self, raw):
        sessions = [Session(s, s + d) for s, d in raw]
        merged = merge_sessions(sessions)
        # Sorted, non-overlapping, gaps strictly positive.
        for a, b in zip(merged, merged[1:]):
            assert b.start > a.end
        # Coverage preserved: every original time point is covered.
        for session in sessions:
            assert any(
                m.start <= session.start and session.end <= m.end for m in merged
            )


class TestProRPConfig:
    def test_table1_defaults(self):
        config = DEFAULT_CONFIG
        assert config.logical_pause_s == 7 * HOUR
        assert config.history_days == 28
        assert config.horizon_s == DAY
        assert config.confidence == 0.1
        assert config.window_s == 7 * HOUR
        assert config.slide_s == 5 * SECONDS_PER_MINUTE
        assert config.prewarm_s == 5 * SECONDS_PER_MINUTE
        assert config.seasonality is Seasonality.DAILY

    def test_windows_per_horizon(self):
        # (24h - 7h) / 5min + 1 = 205 candidate windows.
        assert DEFAULT_CONFIG.windows_per_horizon == 205

    def test_seasonality_periods(self):
        assert DEFAULT_CONFIG.seasonality_periods_in_history == 28
        weekly = ProRPConfig(seasonality=Seasonality.WEEKLY)
        assert weekly.seasonality_periods_in_history == 4

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigError):
            DEFAULT_CONFIG.with_overrides(confidence=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("logical_pause_s", 0),
            ("history_days", -1),
            ("horizon_s", 0),
            ("confidence", 1.5),
            ("window_s", 0),
            ("slide_s", 0),
            ("prewarm_s", -5),
            ("resume_operation_period_s", 0),
        ],
    )
    def test_invalid_knobs_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ProRPConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [("logical_pause_s", 3600.0), ("history_days", 2.5), ("prewarm_s", True)],
    )
    def test_non_integer_knobs_rejected(self, field, value):
        """Durations are whole seconds (days): the engines keep them in
        integer columns, so a float is refused here, not truncated."""
        with pytest.raises(ConfigError, match="whole number"):
            ProRPConfig(**{field: value})

    def test_numpy_integer_knobs_become_ints(self):
        config = ProRPConfig(logical_pause_s=np.int64(3600), history_days=np.int32(2))
        assert config == ProRPConfig(logical_pause_s=3600, history_days=2)
        assert type(config.logical_pause_s) is int and type(config.history_days) is int

    def test_window_larger_than_horizon_rejected(self):
        with pytest.raises(ConfigError):
            ProRPConfig(window_s=2 * DAY)

    def test_weekly_needs_whole_weeks(self):
        with pytest.raises(ConfigError):
            ProRPConfig(history_days=10, seasonality=Seasonality.WEEKLY)

    def test_dict_round_trip(self):
        config = ProRPConfig(confidence=0.3, seasonality=Seasonality.WEEKLY)
        assert ProRPConfig.from_dict(config.to_dict()) == config
