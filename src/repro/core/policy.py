"""The resource allocation policies (Section 4, Algorithm 1).

This module contains the *decision logic* of Algorithm 1 as pure functions
over (time, old-flag, the predicted ``start``/``end``, knobs), all plain
integers (the actors pass their :class:`~repro.types.PredictedActivity`'s
fields, the columnar engine its columns' scalars); the discrete-event
simulator wires them to real histories, predictors, and the control
plane.  Keeping the conditions pure makes the exact semantics of
Algorithm 1's guards unit testable line by line:

* :func:`decide_on_idle` -- lines 10-12 (on becoming idle);
* :func:`logical_pause_wake_time` -- the expiry of the line-19 wait
  condition, computed instead of polled (see DESIGN.md);
* :func:`decide_after_logical_pause` -- line 26 (after the wait expires and
  the prediction was refreshed).

The reactive baseline (Section 2.2) always logically pauses on idle and
physically pauses after ``l`` of idleness; the optimal policy (Figure 2(c))
is the clairvoyant bounding box of demand.
"""

from __future__ import annotations

import enum

from repro.observability.runtime import OBS
from repro.types import NO_PREDICTION_SENTINEL


class PolicyKind(enum.Enum):
    """The three policies of Figure 2, plus the fixed-size provisioning
    the paper's introduction contrasts serverless against: resources are
    always allocated, so QoS is perfect and idle cost is maximal."""

    REACTIVE = "reactive"
    PROACTIVE = "proactive"
    OPTIMAL = "optimal"
    PROVISIONED = "provisioned"


class IdleDecision(enum.Enum):
    """What to do with an idle database."""

    LOGICAL_PAUSE = "logical_pause"
    PHYSICAL_PAUSE = "physical_pause"


def decide_on_idle(
    now: int,
    old: bool,
    start: int,
    logical_pause_s: int,
) -> IdleDecision:
    """Algorithm 1 lines 10-12: the transition out of RESUMED when idle.

    Physically pause when no customer activity is expected within the
    logical pause duration ``l``: either the predicted ``start`` is at
    least ``l`` away, or the database is old yet has no prediction at all
    (``nextActivity.start = 0``).  Otherwise pause logically -- notably for
    every new database, whose history is too short to predict.
    """
    if start == NO_PREDICTION_SENTINEL:
        physical = old
    else:
        physical = now + logical_pause_s <= start
    decision = IdleDecision.PHYSICAL_PAUSE if physical else IdleDecision.LOGICAL_PAUSE
    if OBS.enabled:
        OBS.metrics.counter(f"policy.on_idle.{decision.value}").inc()
    return decision


def logical_pause_wake_time(
    now: int,
    pause_start: int,
    old: bool,
    start: int,
    end: int,
    logical_pause_s: int,
) -> int:
    """Earliest time the line-19 wait condition expires (absent activity).

    The condition keeps the database logically paused while any of:

    * ``!old AND now < pauseStart + l`` -- new database waiting out ``l``;
    * ``now < nextActivity.end`` -- the predicted activity window is not
      over yet (the customer may log in late within it);
    * ``now < nextActivity.start < now + l`` -- the predicted activity
      starts soon, so reclaiming would only thrash.

    Since a logical pause is only entered with ``start < now + l`` (lines
    10/26), the third disjunct expires no later than the second, so the wake
    time is the latest applicable deadline among ``pauseStart + l`` (new
    databases) and ``nextActivity.end`` (predicted databases).  Returns a
    time <= now when the condition already fails (immediate re-decision).
    """
    predicted = None
    if start != NO_PREDICTION_SENTINEL:
        if now < end:
            predicted = end
        elif now < start:  # degenerate start==end prediction
            predicted = start
    if old:
        return now if predicted is None else predicted
    deadline = pause_start + logical_pause_s
    return deadline if predicted is None or predicted < deadline else predicted


def decide_after_logical_pause(
    now: int,
    pause_start: int,
    old: bool,
    start: int,
    logical_pause_s: int,
) -> IdleDecision:
    """Algorithm 1 line 26: after the wait expired and the prediction was
    refreshed, physically pause or remain logically paused.

    The new-database clause uses ``pauseStart + l <= now`` (the paper's
    strict ``<`` would busy-loop at the exact boundary its Sleep() never
    hits; see DESIGN.md).
    """
    if not old and pause_start + logical_pause_s <= now:
        physical = True
    elif start == NO_PREDICTION_SENTINEL:
        physical = old
    else:
        physical = now + logical_pause_s <= start
    decision = IdleDecision.PHYSICAL_PAUSE if physical else IdleDecision.LOGICAL_PAUSE
    if OBS.enabled:
        OBS.metrics.counter(f"policy.after_logical_pause.{decision.value}").inc()
    return decision


def reactive_wake_time(pause_start: int, logical_pause_s: int) -> int:
    """Reactive logical pauses always last exactly ``l``."""
    return pause_start + logical_pause_s


def prediction_expired(end: int, now: int) -> bool:
    """Algorithm 1 line 7: refresh the prediction only when the previous
    predicted activity is over (``nextActivity.end < now``)."""
    return end < now
