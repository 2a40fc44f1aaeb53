"""Multi-level capacity demand traces.

Demand generalises Definition 2.1 from {0, 1} to vCore levels: D(d, t) is
the number of cores the workload needs at time t.  Traces are piecewise
constant on a fixed slot grid (default 5 minutes), which keeps every
computation exact and vectorisable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.types import SECONDS_PER_MINUTE, ActivityTrace

#: Default slot width: the paper's 5-minute window slide.
DEFAULT_SLOT_S = 5 * SECONDS_PER_MINUTE


@dataclass(frozen=True)
class CapacityTrace:
    """Per-slot demanded capacity for one database."""

    database_id: str
    start: int
    slot_s: int
    levels: np.ndarray  # int16 vCores per slot

    def __post_init__(self) -> None:
        if self.slot_s <= 0:
            raise TraceError("slot width must be positive")
        if (self.levels < 0).any():
            raise TraceError("capacity demand cannot be negative")

    @property
    def end(self) -> int:
        return self.start + len(self.levels) * self.slot_s

    def slot_index(self, t: int) -> int:
        return (t - self.start) // self.slot_s

    def window(self, window_start: int, window_end: int) -> np.ndarray:
        """Demand levels for the slots covering [window_start, window_end)."""
        lo = self.slot_index(window_start)
        hi = self.slot_index(window_end - 1) + 1
        if lo < 0 or hi > len(self.levels):
            raise TraceError("window outside the capacity trace")
        return self.levels[lo:hi]


def capacity_from_activity(
    trace: ActivityTrace,
    span_end: int,
    max_vcores: int = 8,
    seed: int = 0,
    slot_s: int = DEFAULT_SLOT_S,
) -> CapacityTrace:
    """Derive a multi-level demand trace from binary activity sessions.

    Each session gets a base intensity (1..max/2 cores) plus occasional
    bursts to higher levels -- the "workload spikes ... throttled by fixed
    resource capacity limits" of Section 1.  Demand is zero outside
    sessions, so the binary problem is exactly the ``level > 0`` projection
    of this trace.
    """
    if max_vcores < 1:
        raise TraceError("max_vcores must be at least 1")
    rng = random.Random(f"{seed}:{trace.database_id}")
    n_slots = (span_end + slot_s - 1) // slot_s
    levels = np.zeros(n_slots, dtype=np.int16)
    for session in trace.sessions:
        base = rng.randint(1, max(1, max_vcores // 2))
        lo = session.start // slot_s
        hi = min(n_slots, (session.end - 1) // slot_s + 1)
        levels[lo:hi] = np.maximum(levels[lo:hi], base)
        # Bursts: short spikes above the base level within the session.
        for _ in range(rng.randint(0, 3)):
            if hi - lo < 2:
                break
            burst_lo = rng.randrange(lo, hi)
            burst_hi = min(hi, burst_lo + rng.randint(1, 4))
            burst_level = rng.randint(base, max_vcores)
            levels[burst_lo:burst_hi] = np.maximum(
                levels[burst_lo:burst_hi], burst_level
            )
    return CapacityTrace(
        database_id=trace.database_id, start=0, slot_s=slot_s, levels=levels
    )
