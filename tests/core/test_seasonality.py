"""Tests for per-database seasonality detection and its policy impact."""

import pytest

from repro.config import ProRPConfig, Seasonality
from repro.core.seasonality import config_for_seasonality, detect_seasonality
from repro.errors import ConfigError
from repro.simulation import SimulationSettings, simulate_region
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR, ActivityTrace, Session

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR


class TestDetection:
    def test_daily_pattern_detected_daily(self):
        logins = [d * DAY + 9 * HOUR for d in range(28)]
        diagnosis = detect_seasonality(logins, now=28 * DAY, history_days=28)
        assert diagnosis.seasonality is Seasonality.DAILY
        assert diagnosis.active_days == diagnosis.observed_days

    def test_weekly_pattern_detected_weekly(self):
        logins = [week * 7 * DAY + 9 * HOUR for week in range(4)]
        diagnosis = detect_seasonality(logins, now=28 * DAY, history_days=28)
        assert diagnosis.seasonality is Seasonality.WEEKLY
        assert diagnosis.weekday_concentration == 1.0
        assert diagnosis.active_days == 4

    def test_sparse_random_defaults_to_daily(self):
        # Three logins on different weekdays: no concentration.
        logins = [2 * DAY, 10 * DAY, 17 * DAY]
        diagnosis = detect_seasonality(logins, now=28 * DAY, history_days=28)
        assert diagnosis.seasonality is Seasonality.DAILY

    def test_two_occurrences_insufficient_for_weekly(self):
        logins = [7 * DAY, 14 * DAY]
        diagnosis = detect_seasonality(logins, now=28 * DAY, history_days=28)
        assert diagnosis.seasonality is Seasonality.DAILY

    def test_empty_history(self):
        diagnosis = detect_seasonality([], now=28 * DAY, history_days=28)
        assert diagnosis.seasonality is Seasonality.DAILY
        assert diagnosis.active_days == 0

    def test_only_recent_history_considered(self):
        # Weekly logins, but all older than the retention window.
        logins = [week * 7 * DAY for week in range(4)]
        diagnosis = detect_seasonality(logins, now=100 * DAY, history_days=28)
        assert diagnosis.active_days == 0


class TestConfigDerivation:
    def test_weekly_variant(self):
        config = config_for_seasonality(ProRPConfig(), Seasonality.WEEKLY)
        assert config.seasonality is Seasonality.WEEKLY
        assert config.horizon_s == 7 * DAY
        assert config.history_days == 28  # already a whole number of weeks

    def test_weekly_variant_rounds_history_to_weeks(self):
        base = ProRPConfig(history_days=30)
        config = config_for_seasonality(base, Seasonality.WEEKLY)
        assert config.history_days == 28

    def test_same_seasonality_returns_base(self):
        base = ProRPConfig()
        assert config_for_seasonality(base, Seasonality.DAILY) is base

    def test_too_short_history_rejected(self):
        base = ProRPConfig(history_days=5)
        with pytest.raises(ConfigError):
            config_for_seasonality(base, Seasonality.WEEKLY)


class TestPolicyImpact:
    def _weekly_trace(self):
        """A Monday-only batch database over six weeks (older than h=28d,
        so it counts as an old, predictable database)."""
        sessions = [
            Session(week * 7 * DAY + 9 * HOUR, week * 7 * DAY + 12 * HOUR)
            for week in range(6)
        ]
        return ActivityTrace("weekly", sessions, created_at=0)

    def _settings(self):
        # Evaluate the window containing the sixth Monday (day 35).
        return SimulationSettings(
            eval_start=34 * DAY,
            eval_end=36 * DAY,
            warmup_s=DAY,
            resume_latency_jitter_s=0,
        )

    def test_auto_seasonality_prewarms_weekly_database(self):
        """With c high enough to silence the daily detector (4/28 < 0.2),
        only the weekly detector can pre-warm the Monday login."""
        fixed = simulate_region(
            [self._weekly_trace()],
            "proactive",
            config=ProRPConfig(confidence=0.2),
            settings=self._settings(),
        ).kpis()
        adaptive = simulate_region(
            [self._weekly_trace()],
            "proactive",
            config=ProRPConfig(confidence=0.2, auto_seasonality=True),
            settings=self._settings(),
        ).kpis()
        assert fixed.logins.reactive == 1  # daily detector misses Monday
        assert adaptive.logins.with_resources == 1  # weekly detector hits
        assert adaptive.workflows.proactive_resumes >= 1

    def test_auto_seasonality_unchanged_for_daily_database(self):
        trace = ActivityTrace(
            "daily",
            [Session(d * DAY + 9 * HOUR, d * DAY + 17 * HOUR) for d in range(31)],
        )
        settings = SimulationSettings(
            eval_start=29 * DAY, eval_end=30 * DAY, resume_latency_jitter_s=0
        )
        fixed = simulate_region(
            [trace], "proactive", settings=settings
        ).kpis()
        adaptive = simulate_region(
            [trace],
            "proactive",
            config=ProRPConfig(auto_seasonality=True),
            settings=settings,
        ).kpis()
        assert adaptive.to_dict() == fixed.to_dict()
