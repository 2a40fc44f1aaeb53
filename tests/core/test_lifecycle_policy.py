"""Tests for the Figure 4 FSM and the pure Algorithm 1 decision logic."""

import pytest

from repro.core.lifecycle import (
    Lifecycle,
    LifecycleState,
    LifecycleTransition,
    legal_transitions,
)
from repro.core.policy import (
    IdleDecision,
    decide_after_logical_pause,
    decide_on_idle,
    logical_pause_wake_time,
    prediction_expired,
    reactive_wake_time,
)
from repro.errors import SimulationError
from repro.types import SECONDS_PER_HOUR, PredictedActivity

HOUR = SECONDS_PER_HOUR
L = 7 * HOUR  # default logical pause duration

NONE = PredictedActivity.none()


class TestLifecycle:
    def test_initial_state(self):
        lc = Lifecycle("db")
        assert lc.state is LifecycleState.RESUMED
        assert lc.allocated

    def test_full_proactive_cycle(self):
        lc = Lifecycle("db")
        lc.apply(LifecycleTransition.IDLE_TO_LOGICAL, 10)
        assert lc.state is LifecycleState.LOGICALLY_PAUSED
        assert lc.allocated  # resources still available during logical pause
        lc.apply(LifecycleTransition.LOGICAL_TO_PHYSICAL, 20)
        assert not lc.allocated
        lc.apply(LifecycleTransition.PROACTIVE_RESUME, 30)
        assert lc.state is LifecycleState.LOGICALLY_PAUSED
        lc.apply(LifecycleTransition.LOGICAL_TO_RESUMED, 40)
        assert lc.state is LifecycleState.RESUMED
        assert [r.transition for r in lc.log] == [
            LifecycleTransition.IDLE_TO_LOGICAL,
            LifecycleTransition.LOGICAL_TO_PHYSICAL,
            LifecycleTransition.PROACTIVE_RESUME,
            LifecycleTransition.LOGICAL_TO_RESUMED,
        ]

    def test_reactive_resume_passes_through_resuming(self):
        lc = Lifecycle("db")
        lc.apply(LifecycleTransition.IDLE_TO_PHYSICAL, 10)
        lc.apply(LifecycleTransition.REACTIVE_RESUME_START, 20)
        assert lc.state is LifecycleState.RESUMING
        assert not lc.allocated  # the availability gap
        lc.apply(LifecycleTransition.REACTIVE_RESUME_COMPLETE, 21)
        assert lc.state is LifecycleState.RESUMED

    def test_illegal_transition_rejected(self):
        lc = Lifecycle("db")
        with pytest.raises(SimulationError):
            lc.apply(LifecycleTransition.PROACTIVE_RESUME, 10)

    def test_time_travel_rejected(self):
        lc = Lifecycle("db")
        lc.apply(LifecycleTransition.IDLE_TO_LOGICAL, 100)
        with pytest.raises(SimulationError):
            lc.apply(LifecycleTransition.LOGICAL_TO_RESUMED, 99)

    def test_same_time_transition_allowed(self):
        lc = Lifecycle("db")
        lc.apply(LifecycleTransition.IDLE_TO_LOGICAL, 100)
        lc.apply(LifecycleTransition.LOGICAL_TO_RESUMED, 100)

    def test_can_apply(self):
        lc = Lifecycle("db")
        assert lc.can_apply(LifecycleTransition.IDLE_TO_LOGICAL)
        assert not lc.can_apply(LifecycleTransition.LOGICAL_TO_RESUMED)

    def test_legal_transitions_cover_all_states(self):
        for state in LifecycleState:
            transitions = legal_transitions(state)
            assert transitions, f"{state} must have outgoing edges"

    def test_log_can_be_disabled(self):
        lc = Lifecycle("db", record_log=False)
        lc.apply(LifecycleTransition.IDLE_TO_LOGICAL, 10)
        assert lc.log == []


class TestDecideOnIdle:
    """Algorithm 1 lines 10-12."""

    def test_activity_predicted_far_away_physical(self):
        prediction = PredictedActivity(start=1000 + L, end=1000 + L + HOUR)
        assert (
            decide_on_idle(1000, True, prediction.start, L)
            is IdleDecision.PHYSICAL_PAUSE
        )

    def test_activity_predicted_soon_logical(self):
        prediction = PredictedActivity(start=1000 + L - 1, end=1000 + L + HOUR)
        assert (
            decide_on_idle(1000, True, prediction.start, L)
            is IdleDecision.LOGICAL_PAUSE
        )

    def test_old_without_prediction_physical(self):
        decision = decide_on_idle(1000, True, NONE.start, L)
        assert decision is IdleDecision.PHYSICAL_PAUSE

    def test_new_without_prediction_logical(self):
        """New databases always pause logically first (Section 4)."""
        decision = decide_on_idle(1000, False, NONE.start, L)
        assert decision is IdleDecision.LOGICAL_PAUSE

    def test_ongoing_predicted_window_logical(self):
        """Prediction window currently open -> stay available."""
        prediction = PredictedActivity(start=500, end=2000)
        decision = decide_on_idle(1000, True, prediction.start, L)
        assert decision is IdleDecision.LOGICAL_PAUSE

    def test_boundary_exactly_l_away_is_physical(self):
        prediction = PredictedActivity(start=1000 + L, end=1000 + L)
        assert (
            decide_on_idle(1000, True, prediction.start, L)
            is IdleDecision.PHYSICAL_PAUSE
        )


class TestLogicalPauseWakeTime:
    def test_new_database_waits_l(self):
        wake = logical_pause_wake_time(100, 100, False, NONE.start, NONE.end, L)
        assert wake == 100 + L

    def test_old_with_prediction_waits_until_end(self):
        prediction = PredictedActivity(start=500, end=900)
        wake = logical_pause_wake_time(
            100, 100, True, prediction.start, prediction.end, L
        )
        assert wake == 900

    def test_new_with_prediction_waits_longest(self):
        prediction = PredictedActivity(start=500, end=100 + L + HOUR)
        wake = logical_pause_wake_time(
            100, 100, False, prediction.start, prediction.end, L
        )
        assert wake == 100 + L + HOUR

    def test_expired_prediction_immediate(self):
        prediction = PredictedActivity(start=50, end=90)
        wake = logical_pause_wake_time(
            100, 100, True, prediction.start, prediction.end, L
        )
        assert wake == 100

    def test_degenerate_point_prediction_in_future(self):
        prediction = PredictedActivity(start=500, end=500)
        wake = logical_pause_wake_time(
            100, 100, True, prediction.start, prediction.end, L
        )
        assert wake == 500


class TestDecideAfterLogicalPause:
    """Algorithm 1 line 26."""

    def test_new_database_after_l_physical(self):
        now = 100 + L
        assert (
            decide_after_logical_pause(now, 100, False, NONE.start, L)
            is IdleDecision.PHYSICAL_PAUSE
        )

    def test_new_database_before_l_logical(self):
        now = 100 + L - 1
        assert (
            decide_after_logical_pause(now, 100, False, NONE.start, L)
            is IdleDecision.LOGICAL_PAUSE
        )

    def test_old_far_prediction_physical(self):
        prediction = PredictedActivity(start=5000 + L, end=5000 + L + 10)
        assert (
            decide_after_logical_pause(5000, 100, True, prediction.start, L)
            is IdleDecision.PHYSICAL_PAUSE
        )

    def test_old_near_prediction_stays_logical(self):
        prediction = PredictedActivity(start=5000 + HOUR, end=5000 + 2 * HOUR)
        assert (
            decide_after_logical_pause(5000, 100, True, prediction.start, L)
            is IdleDecision.LOGICAL_PAUSE
        )

    def test_old_no_prediction_physical(self):
        assert (
            decide_after_logical_pause(5000, 100, True, NONE.start, L)
            is IdleDecision.PHYSICAL_PAUSE
        )


class TestReactiveHelpers:
    def test_reactive_wake_is_pause_plus_l(self):
        assert reactive_wake_time(100, L) == 100 + L


class TestPredictionExpired:
    def test_initial_sentinel_is_expired(self):
        assert prediction_expired(NONE.end, 100)

    def test_ongoing_prediction_not_expired(self):
        assert not prediction_expired(150, 100)

    def test_past_prediction_expired(self):
        assert prediction_expired(99, 100)

    def test_end_exactly_now_not_expired(self):
        """Line 7 uses strict <, so end == now keeps the prediction."""
        assert not prediction_expired(100, 100)
