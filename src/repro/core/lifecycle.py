"""The proactive resume and pause lifecycle of a database (Figure 4).

A serverless database is either resumed, logically paused, or physically
paused; reactive resumes additionally pass through a transient RESUMING
state while the allocation workflow is in flight (the availability gap the
proactive policy shrinks).  This module provides a validated finite state
automaton: every transition is checked against the edges of Figure 4 and
recorded, so the simulator cannot silently corrupt a database's lifecycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import SimulationError
from repro.observability.runtime import OBS


class LifecycleState(enum.Enum):
    """States of the Figure 4 automaton."""

    RESUMED = "resumed"
    LOGICALLY_PAUSED = "logically_paused"
    PHYSICALLY_PAUSED = "physically_paused"
    #: Reactive resume workflow in flight (between demand signal and
    #: effective allocation, Section 2.2).
    RESUMING = "resuming"


class LifecycleTransition(enum.Enum):
    """Named edges of Figure 4 (plus the transient reactive-resume edges)."""

    #: Resumed -> logically paused: the database went idle and activity is
    #: predicted soon (or the database is new) -- Algorithm 1 line 12.
    IDLE_TO_LOGICAL = "idle_to_logical"
    #: Resumed -> physically paused: idle and no activity predicted within
    #: the logical pause duration -- Algorithm 1 lines 10-11.
    IDLE_TO_PHYSICAL = "idle_to_physical"
    #: Logically paused -> resumed: customer activity returned while the
    #: resources were still allocated -- Algorithm 1 lines 21-23, 28.
    LOGICAL_TO_RESUMED = "logical_to_resumed"
    #: Logically paused -> physically paused: the pause expired with no
    #: activity in sight -- Algorithm 1 lines 26-29.
    LOGICAL_TO_PHYSICAL = "logical_to_physical"
    #: Physically paused -> logically paused: proactive resume (pre-warm)
    #: ahead of predicted activity -- Algorithm 5 lines 7-8.
    PROACTIVE_RESUME = "proactive_resume"
    #: Physically paused -> resuming: reactive resume triggered by a login
    #: while resources were reclaimed.
    REACTIVE_RESUME_START = "reactive_resume_start"
    #: Resuming -> resumed: the allocation workflow completed.
    REACTIVE_RESUME_COMPLETE = "reactive_resume_complete"
    #: Physically paused -> logically paused: a system maintenance
    #: operation needs the resources; not customer activity, so it is
    #: excluded from history and predictions (Section 3.3).
    MAINTENANCE_RESUME = "maintenance_resume"


#: Legal (from_state, transition, to_state) edges.
_EDGES = {
    LifecycleTransition.IDLE_TO_LOGICAL: (
        LifecycleState.RESUMED,
        LifecycleState.LOGICALLY_PAUSED,
    ),
    LifecycleTransition.IDLE_TO_PHYSICAL: (
        LifecycleState.RESUMED,
        LifecycleState.PHYSICALLY_PAUSED,
    ),
    LifecycleTransition.LOGICAL_TO_RESUMED: (
        LifecycleState.LOGICALLY_PAUSED,
        LifecycleState.RESUMED,
    ),
    LifecycleTransition.LOGICAL_TO_PHYSICAL: (
        LifecycleState.LOGICALLY_PAUSED,
        LifecycleState.PHYSICALLY_PAUSED,
    ),
    LifecycleTransition.PROACTIVE_RESUME: (
        LifecycleState.PHYSICALLY_PAUSED,
        LifecycleState.LOGICALLY_PAUSED,
    ),
    LifecycleTransition.REACTIVE_RESUME_START: (
        LifecycleState.PHYSICALLY_PAUSED,
        LifecycleState.RESUMING,
    ),
    LifecycleTransition.REACTIVE_RESUME_COMPLETE: (
        LifecycleState.RESUMING,
        LifecycleState.RESUMED,
    ),
    LifecycleTransition.MAINTENANCE_RESUME: (
        LifecycleState.PHYSICALLY_PAUSED,
        LifecycleState.LOGICALLY_PAUSED,
    ),
}


#: Stable integer codes for each lifecycle state, used by the columnar
#: engine's ``int8`` phase column (:mod:`repro.simulation.columnar`).  The
#: codes are part of the struct-of-arrays layout contract documented in
#: ``docs/fleet_scale.md``; do not renumber.
STATE_CODES: Dict[LifecycleState, int] = {
    LifecycleState.RESUMED: 0,
    LifecycleState.LOGICALLY_PAUSED: 1,
    LifecycleState.PHYSICALLY_PAUSED: 2,
    LifecycleState.RESUMING: 3,
}

#: Inverse of :data:`STATE_CODES`: ``STATE_FROM_CODE[code]`` is the state.
STATE_FROM_CODE: Tuple[LifecycleState, ...] = tuple(
    state for state, _ in sorted(STATE_CODES.items(), key=lambda item: item[1])
)


def transition_edge_codes() -> Dict[LifecycleTransition, Tuple[int, int]]:
    """The Figure 4 edge table in integer form: transition ->
    (from_code, to_code).  The columnar engine validates its array-based
    transitions against exactly the same edges as :class:`Lifecycle`."""
    return {
        transition: (STATE_CODES[src], STATE_CODES[dst])
        for transition, (src, dst) in _EDGES.items()
    }


@dataclass(frozen=True)
class TransitionRecord:
    """One logged lifecycle transition."""

    time: int
    transition: LifecycleTransition
    from_state: LifecycleState
    to_state: LifecycleState


class Lifecycle:
    """Tracks and validates the state of one database over time."""

    def __init__(self, database_id: str, record_log: bool = True):
        self.database_id = database_id
        self.state = LifecycleState.RESUMED
        self._record_log = record_log
        self.log: List[TransitionRecord] = []
        self._last_transition_time: int = -1

    def apply(self, transition: LifecycleTransition, now: int) -> LifecycleState:
        """Apply a transition at time ``now``; raises on illegal edges."""
        from_state, to_state = _EDGES[transition]
        if self.state is not from_state:
            raise SimulationError(
                f"{self.database_id}: illegal transition {transition.value} "
                f"from {self.state.value} at t={now} (requires {from_state.value})"
            )
        if now < self._last_transition_time:
            raise SimulationError(
                f"{self.database_id}: transition at t={now} is before the "
                f"previous transition at t={self._last_transition_time}"
            )
        if self._record_log:
            self.log.append(TransitionRecord(now, transition, self.state, to_state))
        if OBS.enabled:
            OBS.metrics.counter(f"lifecycle.transition.{transition.value}").inc()
            span = OBS.tracer.current_span
            if span is not None:
                span.set_attribute("transition", transition.value)
                span.set_attribute("db", self.database_id)
        self.state = to_state
        self._last_transition_time = now
        return to_state

    def can_apply(self, transition: LifecycleTransition) -> bool:
        """Whether the transition is legal from the current state."""
        return self.state is _EDGES[transition][0]

    @property
    def allocated(self) -> bool:
        """Whether resources are currently allocated (A(d, t) = 1)."""
        return self.state in (
            LifecycleState.RESUMED,
            LifecycleState.LOGICALLY_PAUSED,
        )


def legal_transitions(state: LifecycleState) -> Tuple[LifecycleTransition, ...]:
    """All transitions legal from ``state`` (introspection for tests/docs)."""
    return tuple(t for t, (src, _) in _EDGES.items() if src is state)
