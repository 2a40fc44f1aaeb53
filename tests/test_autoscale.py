"""Tests for multi-level proactive auto-scale (Section 11(1))."""

import numpy as np
import pytest

from repro.autoscale import (
    CapacityTrace,
    ProactiveScaler,
    ReactiveScaler,
    capacity_from_activity,
    evaluate_scaler,
)
from repro.errors import ConfigError, TraceError
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR, ActivityTrace, Session

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR
SLOT = 300


def flat_trace(levels):
    return CapacityTrace("db", start=0, slot_s=SLOT, levels=np.array(levels, dtype=np.int16))


class TestCapacityTrace:
    def test_negative_levels_rejected(self):
        with pytest.raises(TraceError):
            flat_trace([-1])

    def test_window(self):
        trace = flat_trace([1, 2, 3, 4])
        assert list(trace.window(SLOT, 3 * SLOT)) == [2, 3]

    def test_window_out_of_bounds(self):
        with pytest.raises(TraceError):
            flat_trace([1]).window(0, 5 * SLOT)


class TestCapacityFromActivity:
    def _activity(self):
        return ActivityTrace(
            "db",
            [Session(d * DAY + 9 * HOUR, d * DAY + 17 * HOUR) for d in range(30)],
        )

    def test_demand_zero_outside_sessions(self):
        trace = capacity_from_activity(self._activity(), span_end=30 * DAY)
        assert trace.levels[trace.slot_index(5 * DAY + 3 * HOUR)] == 0
        assert trace.levels[trace.slot_index(5 * DAY + 12 * HOUR)] >= 1

    def test_binary_projection_matches_activity(self):
        activity = self._activity()
        trace = capacity_from_activity(activity, span_end=30 * DAY)
        for t in range(0, 3 * DAY, 2 * HOUR):
            assert (trace.levels[trace.slot_index(t)] > 0) == bool(activity.demand_at(t))

    def test_bounded_by_max_vcores(self):
        trace = capacity_from_activity(self._activity(), span_end=30 * DAY, max_vcores=4)
        assert trace.levels.max() <= 4

    def test_deterministic_per_seed(self):
        a = capacity_from_activity(self._activity(), 30 * DAY, seed=1)
        b = capacity_from_activity(self._activity(), 30 * DAY, seed=1)
        assert (a.levels == b.levels).all()

    def test_invalid_max_vcores(self):
        with pytest.raises(TraceError):
            capacity_from_activity(self._activity(), 30 * DAY, max_vcores=0)


class TestReactiveScaler:
    def test_tracks_demand_with_lag(self):
        trace = flat_trace([0, 4, 4, 4, 0, 0, 0, 0])
        allocation = ReactiveScaler(reaction_slots=1, cooldown_slots=0).allocate(
            trace, 0, 8 * SLOT
        )
        # Demand rises at slot 1; allocation follows at slot 2.
        assert list(allocation) == [0, 0, 4, 4, 4, 0, 0, 0]

    def test_cooldown_holds_allocation(self):
        trace = flat_trace([4, 0, 0, 0, 0])
        allocation = ReactiveScaler(reaction_slots=0, cooldown_slots=2).allocate(
            trace, 0, 5 * SLOT
        )
        assert list(allocation) == [4, 4, 4, 0, 0]

    def test_throttling_during_lag(self):
        trace = flat_trace([0, 4, 4, 0])
        evaluation = evaluate_scaler(
            ReactiveScaler(reaction_slots=1, cooldown_slots=0), trace, 0, 4 * SLOT
        )
        assert evaluation.throttled_core_s == 4 * SLOT  # one slot at level 4

    def test_negative_lags_rejected(self):
        with pytest.raises(ConfigError):
            ReactiveScaler(reaction_slots=-1)


class TestProactiveScaler:
    def _daily_capacity(self):
        activity = ActivityTrace(
            "db",
            [Session(d * DAY + 9 * HOUR, d * DAY + 17 * HOUR) for d in range(30)],
        )
        return capacity_from_activity(activity, span_end=30 * DAY, seed=3)

    def test_envelope_predicts_daily_demand(self):
        trace = self._daily_capacity()
        scaler = ProactiveScaler(history_days=14, quantile=0.8)
        window = (29 * DAY, 30 * DAY)
        envelope = scaler.envelope(trace, *window)
        # Envelope is up during work hours, zero overnight.
        slots_per_hour = HOUR // SLOT
        assert envelope[12 * slots_per_hour] >= 1  # noon
        assert envelope[3 * slots_per_hour] == 0  # 03:00

    def test_proactive_throttles_less_than_reactive(self):
        """The Section 11(1) goal: pre-provisioned capacity absorbs the
        demand the reactive scaler throttles during its reaction lag."""
        trace = self._daily_capacity()
        window = (29 * DAY, 30 * DAY)
        reactive = evaluate_scaler(
            ReactiveScaler(reaction_slots=1, cooldown_slots=6), trace, *window
        )
        proactive = evaluate_scaler(
            ProactiveScaler(history_days=14, quantile=0.8), trace, *window
        )
        assert proactive.throttled_core_s < reactive.throttled_core_s
        assert proactive.throttled_percent < reactive.throttled_percent

    def test_allocation_at_least_reactive(self):
        trace = self._daily_capacity()
        window = (29 * DAY, 30 * DAY)
        scaler = ProactiveScaler(history_days=14)
        proactive_alloc = scaler.allocate(trace, *window)
        reactive_alloc = scaler._reactive.allocate(trace, *window)
        assert (proactive_alloc >= reactive_alloc).all()

    def test_invalid_knobs(self):
        with pytest.raises(ConfigError):
            ProactiveScaler(quantile=0.0)
        with pytest.raises(ConfigError):
            ProactiveScaler(history_days=0)


class TestEvaluation:
    def test_perfect_allocation(self):
        trace = flat_trace([2, 2, 0])

        class Oracle:
            name = "oracle"

            def allocate(self, t, a, b):
                return t.window(a, b).astype(np.int32)

        evaluation = evaluate_scaler(Oracle(), trace, 0, 3 * SLOT)
        assert evaluation.throttled_core_s == 0
        assert evaluation.overprovisioned_core_s == 0
        assert evaluation.throttled_percent == 0.0
        assert evaluation.allocated_core_s == evaluation.demanded_core_s

    def test_percentages_guard_zero_division(self):
        trace = flat_trace([0, 0])

        class Nothing:
            name = "nothing"

            def allocate(self, t, a, b):
                return np.zeros(2, dtype=np.int32)

        evaluation = evaluate_scaler(Nothing(), trace, 0, 2 * SLOT)
        assert evaluation.throttled_percent == 0.0
        assert evaluation.overprovisioned_percent == 0.0
