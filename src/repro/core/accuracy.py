"""Offline evaluation of next-activity prediction accuracy.

The paper's justification for the probabilistic approach is that "the
accuracy of simple statistical and probabilistic load prediction
techniques is sufficient in practice" (Section 1).  This module measures
that accuracy directly: every prediction the policy made is joined with
the ground-truth trace and classified, and the lead-time error (actual
login minus predicted start) is collected.

Classification of one prediction made at time ``t`` with horizon ``p``:

* **hit** -- a prediction was made and the actual next login falls inside
  ``[predicted_start - tolerance, predicted_end + tolerance]``;
* **miss** -- a prediction was made, a login happened within the horizon,
  but outside the tolerated window;
* **false alarm** -- a prediction was made but no login happened within
  the horizon (a pre-warm would have been wrong);
* **undetected** -- no prediction, yet a login happened within the horizon
  (a pre-warm opportunity lost);
* **true quiet** -- no prediction and indeed no login within the horizon.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.stats import percentile
from repro.simulation.results import DatabaseOutcome
from repro.types import SECONDS_PER_MINUTE, ActivityTrace

#: How far the actual login may fall outside the predicted interval and
#: still count as a hit: the pre-warm would still have been useful.
DEFAULT_TOLERANCE_S = 30 * SECONDS_PER_MINUTE


@dataclass
class AccuracyReport:
    """Aggregated prediction-vs-ground-truth statistics."""

    hits: int = 0
    misses: int = 0
    false_alarms: int = 0
    undetected: int = 0
    true_quiet: int = 0
    #: actual login time - predicted start, for every hit or miss.
    lead_time_errors_s: List[int] = field(default_factory=list)

    @property
    def total(self) -> int:
        return (
            self.hits
            + self.misses
            + self.false_alarms
            + self.undetected
            + self.true_quiet
        )

    @property
    def precision(self) -> float:
        """Of the predictions made, how many led to a useful pre-warm."""
        made = self.hits + self.misses + self.false_alarms
        return self.hits / made if made else 0.0

    @property
    def recall(self) -> float:
        """Of the logins that happened, how many were predicted in time."""
        had_login = self.hits + self.misses + self.undetected
        return self.hits / had_login if had_login else 0.0

    def lead_time_percentile(self, q: float) -> float:
        if not self.lead_time_errors_s:
            raise ValueError("no lead-time samples")
        return percentile(self.lead_time_errors_s, q)

    def merge(self, other: "AccuracyReport") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.false_alarms += other.false_alarms
        self.undetected += other.undetected
        self.true_quiet += other.true_quiet
        self.lead_time_errors_s.extend(other.lead_time_errors_s)


def evaluate_predictions(
    outcome: DatabaseOutcome,
    trace: ActivityTrace,
    horizon_s: int,
    tolerance_s: int = DEFAULT_TOLERANCE_S,
) -> AccuracyReport:
    """Score every recorded prediction of one database against its trace."""
    report = AccuracyReport()
    starts = [session.start for session in trace.sessions]
    for made_at, predicted_start, predicted_end, _confidence in outcome.predictions:
        index = bisect.bisect_right(starts, made_at)
        actual: Optional[int] = starts[index] if index < len(starts) else None
        login_in_horizon = actual is not None and actual <= made_at + horizon_s
        predicted = predicted_start != 0
        if predicted and login_in_horizon:
            report.lead_time_errors_s.append(actual - predicted_start)
            if predicted_start - tolerance_s <= actual <= predicted_end + tolerance_s:
                report.hits += 1
            else:
                report.misses += 1
        elif predicted and not login_in_horizon:
            report.false_alarms += 1
        elif not predicted and login_in_horizon:
            report.undetected += 1
        else:
            report.true_quiet += 1
    return report
