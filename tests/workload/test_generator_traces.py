"""Tests for fleet generation, region presets, and idle-interval stats."""

import pytest

from repro.errors import TraceError
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR, ActivityTrace, Session
from repro.workload import (
    FleetSpec,
    RegionPreset,
    Sporadic,
    generate_fleet,
    generate_region_traces,
    idle_interval_stats,
    region_spec,
)
from repro.workload.traces import hours

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR


class TestFleetSpec:
    def test_empty_mixture_rejected(self):
        with pytest.raises(TraceError):
            FleetSpec(mixture=())

    def test_zero_weights_rejected(self):
        with pytest.raises(TraceError):
            FleetSpec(mixture=(("x", 0.0, lambda r: Sporadic()),))

    def test_bad_new_fraction_rejected(self):
        with pytest.raises(TraceError):
            FleetSpec(
                mixture=(("x", 1.0, lambda r: Sporadic()),),
                new_database_fraction=1.0,
            )


class TestGenerateFleet:
    def test_sizes_and_ids(self):
        traces = generate_fleet(region_spec(RegionPreset.EU1), 50, 10, seed=1)
        assert len(traces) == 50
        assert len({t.database_id for t in traces}) == 50

    def test_deterministic_per_seed(self):
        a = generate_fleet(region_spec(RegionPreset.EU1), 20, 10, seed=3)
        b = generate_fleet(region_spec(RegionPreset.EU1), 20, 10, seed=3)
        assert [t.sessions for t in a] == [t.sessions for t in b]

    def test_different_seeds_differ(self):
        a = generate_fleet(region_spec(RegionPreset.EU1), 20, 10, seed=3)
        b = generate_fleet(region_spec(RegionPreset.EU1), 20, 10, seed=4)
        assert [t.sessions for t in a] != [t.sessions for t in b]

    def test_mixture_represented(self):
        traces = generate_fleet(region_spec(RegionPreset.EU1), 400, 7, seed=5)
        kinds = {t.database_id.split("-")[1] for t in traces}
        assert {"sporadic", "dormant", "daily"} <= kinds

    def test_new_databases_created_late(self):
        spec = region_spec(RegionPreset.EU1)
        traces = generate_fleet(spec, 300, 30, seed=6)
        new = [t for t in traces if t.created_at > 0]
        assert new, "expected some new databases at EU1's 5% fraction"
        for trace in new:
            assert trace.created_at >= 30 * DAY * 2 / 3

    def test_invalid_sizes_rejected(self):
        with pytest.raises(TraceError):
            generate_fleet(region_spec(RegionPreset.EU1), 0, 10)
        with pytest.raises(TraceError):
            generate_fleet(region_spec(RegionPreset.EU1), 10, 0)


class TestRegionPresets:
    def test_all_regions_have_specs(self):
        for preset in RegionPreset:
            assert region_spec(preset).mixture

    def test_regions_generate_distinct_fleets(self):
        eu = generate_region_traces(RegionPreset.EU1, 30, span_days=10, seed=0)
        us = generate_region_traces(RegionPreset.US1, 30, span_days=10, seed=0)
        assert [t.sessions for t in eu] != [t.sessions for t in us]

    def test_us_business_hours_shifted(self):
        """US daily databases work ~7h later than EU ones (time zones)."""

        def mean_daily_start_hour(preset):
            traces = generate_region_traces(preset, 400, span_days=14, seed=2)
            hours_of_day = [
                (t.sessions[0].start % DAY) / HOUR
                for t in traces
                if "daily" in t.database_id and t.sessions
            ]
            return sum(hours_of_day) / len(hours_of_day)

        eu = mean_daily_start_hour(RegionPreset.EU1)
        us = mean_daily_start_hour(RegionPreset.US1)
        assert us - eu > 4.0


class TestIdleIntervalStats:
    def test_known_trace(self):
        trace = ActivityTrace(
            "t",
            [
                Session(0, HOUR),
                Session(2 * HOUR, 3 * HOUR),  # 1h gap
                Session(3 * HOUR + 600, 4 * HOUR),  # 10 min gap
                Session(2 * DAY, 2 * DAY + HOUR),  # ~44h gap
            ],
        )
        stats = idle_interval_stats([trace])
        assert stats.count == 3
        assert stats.fraction_of_count_below(hours(1)) == pytest.approx(1 / 3)
        # The 10-minute gap is a sliver of total idle time.
        assert stats.fraction_of_duration_below(hours(0.5)) < 0.01

    def test_window_clipping(self):
        trace = ActivityTrace("t", [Session(0, 10), Session(1000, 1010)])
        stats = idle_interval_stats([trace], window_start=500, window_end=800)
        assert stats.durations == (300,)

    def test_empty_fleet(self):
        stats = idle_interval_stats([])
        assert stats.count == 0
        assert stats.fraction_of_count_below(100) == 0.0
        assert stats.fraction_of_duration_below(100) == 0.0

    def test_figure3_shape_on_region_fleet(self):
        """The synthetic fleet reproduces the Figure 3 asymmetry: most idle
        intervals are sub-hour, yet they carry a tiny share of idle time."""
        traces = generate_region_traces(RegionPreset.EU1, 200, span_days=21, seed=9)
        stats = idle_interval_stats(traces)
        count_frac = stats.fraction_of_count_below(hours(1))
        duration_frac = stats.fraction_of_duration_below(hours(1))
        assert count_frac > 0.5
        assert duration_frac < 0.1
        assert count_frac > 10 * duration_frac
