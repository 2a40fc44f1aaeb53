"""Core value types shared across the ProRP reproduction.

Time is modelled exactly as in the paper (Section 2.1): a linearly ordered
set of time points.  Concretely we use integer epoch seconds, matching the
``time_snapshot BIGINT`` column of ``sys.pause_resume_history`` (Section 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import TraceError

#: Number of seconds per minute/hour/day, used everywhere a knob expressed
#: in human units (Table 1) is converted to epoch seconds.
SECONDS_PER_MINUTE = 60
SECONDS_PER_HOUR = 60 * SECONDS_PER_MINUTE
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR


class EventType(enum.IntEnum):
    """``event_type`` column values of ``sys.pause_resume_history``.

    The paper stores ``1`` for the start of customer activity and ``0`` for
    the end of activity (Section 5).
    """

    ACTIVITY_END = 0
    ACTIVITY_START = 1


@dataclass(frozen=True)
class HistoryEvent:
    """One tuple of ``sys.pause_resume_history``: (time_snapshot, event_type)."""

    time_snapshot: int
    event_type: EventType

    def __post_init__(self) -> None:
        if self.time_snapshot < 0:
            raise TraceError(
                f"time_snapshot must be non-negative, got {self.time_snapshot}"
            )

    def __iter__(self) -> Iterator:
        """Unpacks as the ``(time_snapshot, event_type)`` row it stores."""
        return iter((self.time_snapshot, self.event_type))


@dataclass(frozen=True)
class Session:
    """A contiguous interval of customer activity ``[start, end)``.

    A session corresponds to an ACTIVITY_START event at ``start`` followed by
    an ACTIVITY_END event at ``end``.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise TraceError(
                f"session end ({self.end}) must be after start ({self.start})"
            )

    @property
    def duration(self) -> int:
        """Length of the session in seconds."""
        return self.end - self.start

    def contains(self, t: int) -> bool:
        """Whether time point ``t`` falls inside the session."""
        return self.start <= t < self.end


#: Sentinel meaning "no prediction": the paper encodes the absence of a
#: predicted activity as ``nextActivity.start = 0`` (Algorithm 1, line 10).
NO_PREDICTION_SENTINEL = 0


@dataclass(frozen=True)
class PredictedActivity:
    """Result of the next-activity prediction (Algorithm 4).

    ``start == end == 0`` encodes "no activity predicted", mirroring the
    output parameters of the stored procedure.  ``confidence`` is the
    probability of activity in the selected window (windows-with-activity /
    history-length); it is 0.0 for the no-prediction sentinel.
    """

    start: int
    end: int
    confidence: float = 0.0

    @property
    def is_empty(self) -> bool:
        """Whether this is the no-prediction sentinel."""
        return self.start == NO_PREDICTION_SENTINEL

    @staticmethod
    def none() -> "PredictedActivity":
        """The no-prediction sentinel value."""
        return PredictedActivity(NO_PREDICTION_SENTINEL, NO_PREDICTION_SENTINEL, 0.0)


class AllocationState(enum.Enum):
    """Resource allocation state of one database at one point in time.

    These refine the binary A(d, t) of Definition 2.1: the first three all
    mean "resources allocated" (A=1) while PHYSICALLY_PAUSED and RESUMING
    mean "resources reclaimed / not yet available" (A=0).
    """

    #: Resources allocated and the customer is using them (D=1, A=1).
    ACTIVE = "active"
    #: Resources allocated, customer idle: logical pause or post-pre-warm
    #: idle time (D=0, A=1) -- the COGS the paper measures.
    IDLE_ALLOCATED = "idle_allocated"
    #: Resources reclaimed (A=0).
    PHYSICALLY_PAUSED = "physically_paused"
    #: Customer demanded resources but allocation is still in flight
    #: (D=1, A=0): the QoS gap of a reactive resume.
    RESUMING = "resuming"

    @property
    def allocated(self) -> bool:
        """Whether resources are allocated (A(d, t) = 1) in this state."""
        return self in (AllocationState.ACTIVE, AllocationState.IDLE_ALLOCATED)


@dataclass(frozen=True)
class AllocationInterval:
    """A maximal interval ``[start, end)`` with a constant allocation state."""

    start: int
    end: int
    state: AllocationState

    @property
    def duration(self) -> int:
        return self.end - self.start


class ActivityTrace:
    """The full customer-activity timeline of one database.

    A trace is an ordered sequence of non-overlapping :class:`Session`
    objects plus the database creation time, which the paper uses to decide
    whether a database is "old" (existed for at least the history length
    ``h``) and therefore predictable (Algorithm 3).
    """

    def __init__(
        self,
        database_id: str,
        sessions: Sequence[Session],
        created_at: Optional[int] = None,
    ):
        self.database_id = database_id
        self.sessions: Tuple[Session, ...] = tuple(sessions)
        self._validate()
        if created_at is None:
            created_at = self.sessions[0].start if self.sessions else 0
        if self.sessions and created_at > self.sessions[0].start:
            raise TraceError(
                f"database {database_id} created at {created_at} after its "
                f"first session at {self.sessions[0].start}"
            )
        self.created_at = created_at

    def _validate(self) -> None:
        previous: Optional[Session] = None
        for session in self.sessions:
            if previous is not None and session.start < previous.end:
                raise TraceError(
                    f"sessions of {self.database_id} overlap or are unsorted: "
                    f"{previous} then {session}"
                )
            previous = session

    def __len__(self) -> int:
        return len(self.sessions)

    def __iter__(self) -> Iterator[Session]:
        return iter(self.sessions)

    def __repr__(self) -> str:
        return (
            f"ActivityTrace({self.database_id!r}, {len(self.sessions)} sessions, "
            f"created_at={self.created_at})"
        )

    @property
    def span(self) -> Tuple[int, int]:
        """(first session start, last session end); (created, created) if empty."""
        if not self.sessions:
            return (self.created_at, self.created_at)
        return (self.sessions[0].start, self.sessions[-1].end)

    def events(self) -> List[HistoryEvent]:
        """Flatten sessions into the (timestamp, event_type) event stream.

        This is exactly what the activity tracker of Section 5 would insert
        into ``sys.pause_resume_history``.
        """
        out: List[HistoryEvent] = []
        for session in self.sessions:
            out.append(HistoryEvent(session.start, EventType.ACTIVITY_START))
            out.append(HistoryEvent(session.end, EventType.ACTIVITY_END))
        return out

    def idle_intervals(self) -> List[Session]:
        """Gaps between consecutive sessions (the paper's "idle intervals")."""
        gaps: List[Session] = []
        for before, after in zip(self.sessions, self.sessions[1:]):
            if after.start > before.end:
                gaps.append(Session(before.end, after.start))
        return gaps

    def demand_at(self, t: int) -> int:
        """Resource demand D(d, t) per Definition 2.1 (binary)."""
        for session in self.sessions:
            if session.contains(t):
                return 1
            if session.start > t:
                break
        return 0

    def active_seconds(self, start: int, end: int) -> int:
        """Total demanded seconds within ``[start, end)``."""
        total = 0
        for session in self.sessions:
            if session.end <= start:
                continue
            if session.start >= end:
                break
            total += min(session.end, end) - max(session.start, start)
        return total


def merge_sessions(sessions: Iterable[Session], gap: int = 0) -> List[Session]:
    """Merge overlapping (or nearly-touching, within ``gap``) sessions.

    Used by workload generators that superimpose several activity processes
    for one database: the history store only sees the merged on/off signal.
    """
    ordered = sorted(sessions, key=lambda s: (s.start, s.end))
    merged: List[Session] = []
    for session in ordered:
        if merged and session.start <= merged[-1].end + gap:
            last = merged[-1]
            if session.end > last.end:
                merged[-1] = Session(last.start, session.end)
        else:
            merged.append(session)
    return merged
