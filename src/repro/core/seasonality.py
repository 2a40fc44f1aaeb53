"""Per-database seasonality detection.

The paper fixes the seasonality knob per region (daily in production,
weekly evaluated offline -- Section 9.2).  Resource usage patterns vary
per database, though (Section 1, challenge 1): a weekly batch database is
invisible to the daily detector at any reasonable confidence.  This module
classifies each database's history as daily or weekly from two cheap
statistics and lets the policy run Algorithm 4 with the right period:

* **activity density** -- the fraction of retained days with at least one
  login.  Dense histories are daily-predictable by construction.
* **day-of-week concentration** -- among active days, the share belonging
  to the most common weekday.  Sparse but concentrated histories are
  weekly patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import ProRPConfig, Seasonality
from repro.errors import ConfigError
from repro.types import SECONDS_PER_DAY

#: A database active on at least this fraction of days is daily.
DENSE_ACTIVITY_THRESHOLD = 0.5
#: A sparse database whose active days concentrate on one weekday at or
#: above this share (with at least MIN_WEEKLY_OCCURRENCES samples) is
#: weekly.
WEEKDAY_CONCENTRATION_THRESHOLD = 0.6
MIN_WEEKLY_OCCURRENCES = 3


@dataclass(frozen=True)
class SeasonalityDiagnosis:
    """Why a database was classified the way it was."""

    seasonality: Seasonality
    active_days: int
    observed_days: int
    weekday_concentration: float


def detect_seasonality(
    logins: Sequence[int], now: int, history_days: int
) -> SeasonalityDiagnosis:
    """Classify the login pattern of the last ``history_days`` days.

    Defaults to DAILY whenever the evidence is inconclusive -- the paper's
    production choice, and the safe one: the daily detector still catches
    weekly patterns at low confidence (4/28 = 0.14 > c = 0.1) while the
    weekly detector would ignore six sevenths of a daily pattern's data.
    """
    history_start = now - history_days * SECONDS_PER_DAY
    active_days = set()
    for t in logins:
        if history_start <= t <= now:
            active_days.add(t // SECONDS_PER_DAY)
    weekday_counts = [0] * 7
    for day in active_days:
        weekday_counts[day % 7] += 1
    concentration = (
        max(weekday_counts) / len(active_days) if active_days else 0.0
    )
    density = len(active_days) / history_days if history_days else 0.0
    if (
        density < DENSE_ACTIVITY_THRESHOLD
        and concentration >= WEEKDAY_CONCENTRATION_THRESHOLD
        and max(weekday_counts) >= MIN_WEEKLY_OCCURRENCES
    ):
        seasonality = Seasonality.WEEKLY
    else:
        seasonality = Seasonality.DAILY
    return SeasonalityDiagnosis(
        seasonality=seasonality,
        active_days=len(active_days),
        observed_days=history_days,
        weekday_concentration=concentration,
    )


def config_for_seasonality(base: ProRPConfig, seasonality: Seasonality) -> ProRPConfig:
    """Derive the Algorithm 4 configuration for a detected seasonality.

    The weekly variant needs a week-long prediction horizon (the next
    occurrence can be up to seven days away) and a history length that is a
    whole number of weeks; everything else is inherited.
    """
    if seasonality is base.seasonality:
        return base
    if seasonality is Seasonality.WEEKLY:
        history_days = base.history_days - (base.history_days % 7)
        if history_days < 7:
            raise ConfigError(
                "weekly seasonality needs at least one week of history"
            )
        return base.with_overrides(
            seasonality=Seasonality.WEEKLY,
            history_days=history_days,
            horizon_s=7 * SECONDS_PER_DAY,
        )
    return base.with_overrides(
        seasonality=Seasonality.DAILY, horizon_s=SECONDS_PER_DAY
    )
