"""Trace analysis: the idle-interval fragmentation study of Figure 3.

The paper analyses two months of production telemetry and finds that 72% of
idle intervals are shorter than one hour (Figure 3(a)) yet those short
intervals contribute only 5% of the total idle duration (Figure 3(b)) --
the motivation for logical pauses.  These helpers compute the same two CDFs
from a synthetic fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.types import SECONDS_PER_HOUR, ActivityTrace


@dataclass(frozen=True)
class IdleIntervalStats:
    """Fleet-wide idle interval durations (seconds), sorted ascending."""

    durations: Tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.durations)

    @property
    def total_idle_s(self) -> int:
        return sum(self.durations)

    def fraction_of_count_below(self, threshold_s: int) -> float:
        """CDF of interval *count* (Figure 3(a)) at one threshold."""
        if not self.durations:
            return 0.0
        below = sum(1 for d in self.durations if d < threshold_s)
        return below / len(self.durations)

    def fraction_of_duration_below(self, threshold_s: int) -> float:
        """CDF of total idle *duration* (Figure 3(b)) at one threshold."""
        total = self.total_idle_s
        if total == 0:
            return 0.0
        return sum(d for d in self.durations if d < threshold_s) / total


def idle_interval_stats(
    traces: Sequence[ActivityTrace],
    window_start: Optional[int] = None,
    window_end: Optional[int] = None,
) -> IdleIntervalStats:
    """Collect idle intervals across a fleet, optionally clipped to a
    window (idle intervals straddling the boundary are clipped)."""
    durations: List[int] = []
    for trace in traces:
        for gap in trace.idle_intervals():
            start, end = gap.start, gap.end
            if window_start is not None:
                start = max(start, window_start)
            if window_end is not None:
                end = min(end, window_end)
            if end > start:
                durations.append(end - start)
    durations.sort()
    return IdleIntervalStats(tuple(durations))


def hours(h: float) -> int:
    """Convenience: hours to seconds for threshold lists."""
    return int(h * SECONDS_PER_HOUR)
