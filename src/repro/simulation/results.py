"""Accounting of simulation outcomes and aggregation into KPI reports.

Every database-second of the evaluation window falls into exactly one of
the four quadrants of Definition 2.2:

* used (D=1, A=1), tracked from session/allocation overlap;
* idle (D=0, A=1), split by cause: logical pause, correct proactive
  resume, wrong proactive resume (Section 8);
* unavailable (D=1, A=0), the reactive-resume gap;
* saved (D=0, A=0), computed as the remainder.

Intervals are clipped to the evaluation window so warm-up time never leaks
into the KPIs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.kpi import IdleBreakdown, KpiReport, LoginStats, WorkflowCounts
from repro.types import AllocationInterval, AllocationState


@dataclass
class DatabaseOutcome:
    """Mutable per-database accounting, written by the policy actors."""

    database_id: str
    eval_start: int
    eval_end: int
    collect_timeline: bool = False

    used_s: int = 0
    logical_pause_idle_s: int = 0
    correct_proactive_idle_s: int = 0
    wrong_proactive_idle_s: int = 0
    unavailable_s: int = 0
    maintenance_s: int = 0

    logins_with_resources: int = 0
    logins_reactive: int = 0
    #: Reactive logins attributable to faults/degraded-mode operation.
    logins_reactive_faulted: int = 0

    proactive_resume_times: List[int] = field(default_factory=list)
    reactive_resume_times: List[int] = field(default_factory=list)
    logical_pause_times: List[int] = field(default_factory=list)
    physical_pause_times: List[int] = field(default_factory=list)
    maintenance_resume_times: List[int] = field(default_factory=list)
    correct_proactive_resumes: int = 0
    wrong_proactive_resumes: int = 0

    #: (time, predicted_start, predicted_end, confidence) per refresh, kept
    #: only when the simulation enables prediction collection.
    predictions: List[Tuple[int, int, int, float]] = field(default_factory=list)
    timeline: List[AllocationInterval] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Interval helpers (all clip to the evaluation window)
    # ------------------------------------------------------------------

    # The clip to the window is inlined: these run once per event.

    def add_used(self, start: int, end: int) -> None:
        lo = start if start > self.eval_start else self.eval_start
        hi = end if end < self.eval_end else self.eval_end
        if hi > lo:
            self.used_s += hi - lo
        if self.collect_timeline:
            self._record_timeline(start, end, AllocationState.ACTIVE)

    def add_unavailable(self, start: int, end: int) -> None:
        lo = start if start > self.eval_start else self.eval_start
        hi = end if end < self.eval_end else self.eval_end
        if hi > lo:
            self.unavailable_s += hi - lo
        if self.collect_timeline:
            self._record_timeline(start, end, AllocationState.RESUMING)

    def add_idle(self, start: int, end: int, cause: str) -> None:
        lo = start if start > self.eval_start else self.eval_start
        hi = end if end < self.eval_end else self.eval_end
        clipped = hi - lo if hi > lo else 0
        if cause == "logical_pause":
            self.logical_pause_idle_s += clipped
        elif cause == "correct_proactive":
            self.correct_proactive_idle_s += clipped
        elif cause == "wrong_proactive":
            self.wrong_proactive_idle_s += clipped
        elif cause == "maintenance":
            self.maintenance_s += clipped
        else:
            raise ValueError(f"unknown idle cause {cause!r}")
        if self.collect_timeline:
            self._record_timeline(start, end, AllocationState.IDLE_ALLOCATED)

    def _record_timeline(self, start: int, end: int, state: AllocationState) -> None:
        if end > start:
            self.timeline.append(AllocationInterval(start, end, state))

    # ------------------------------------------------------------------
    # Event helpers
    # ------------------------------------------------------------------

    def record_login(self, t: int, served: bool, faulted: bool = False) -> None:
        """``faulted`` marks a reactive login caused by fault-degraded
        operation (predictor breaker open, scan outage) rather than by the
        policy's own reclamation decision."""
        if not self.eval_start <= t < self.eval_end:
            return
        if served:
            self.logins_with_resources += 1
        else:
            self.logins_reactive += 1
            if faulted:
                self.logins_reactive_faulted += 1

    def record_workflow(self, t: int, kind: str) -> None:
        if not self.eval_start <= t < self.eval_end:
            return
        if kind == "proactive_resume":
            self.proactive_resume_times.append(t)
        elif kind == "reactive_resume":
            self.reactive_resume_times.append(t)
        elif kind == "logical_pause":
            self.logical_pause_times.append(t)
        elif kind == "physical_pause":
            self.physical_pause_times.append(t)
        elif kind == "maintenance_resume":
            self.maintenance_resume_times.append(t)
        else:
            raise ValueError(f"unknown workflow kind {kind!r}")

    def record_proactive_outcome(self, t: int, correct: bool) -> None:
        """Classify a proactive resume once its fate is known (the login
        arrived, or the pre-warm expired unused).  Attribution follows the
        time of the pre-warm's *resolution* falling in the window."""
        if not self.eval_start <= t < self.eval_end:
            return
        if correct:
            self.correct_proactive_resumes += 1
        else:
            self.wrong_proactive_resumes += 1

    def record_prediction(
        self, now: int, start: int, end: int, confidence: float
    ) -> None:
        self.predictions.append((now, start, end, confidence))

    @property
    def idle_s(self) -> int:
        return (
            self.logical_pause_idle_s
            + self.correct_proactive_idle_s
            + self.wrong_proactive_idle_s
        )

    def saved_s(self) -> int:
        window = self.eval_end - self.eval_start
        return (
            window
            - self.used_s
            - self.idle_s
            - self.unavailable_s
            - self.maintenance_s
        )


def aggregate(
    policy: str,
    outcomes: List[DatabaseOutcome],
    eval_start: int,
    eval_end: int,
) -> KpiReport:
    """Combine per-database outcomes into one region-level KPI report."""
    logins = LoginStats(
        with_resources=sum(o.logins_with_resources for o in outcomes),
        reactive=sum(o.logins_reactive for o in outcomes),
        reactive_faulted=sum(o.logins_reactive_faulted for o in outcomes),
    )
    idle = IdleBreakdown(
        logical_pause_s=sum(o.logical_pause_idle_s for o in outcomes),
        correct_proactive_s=sum(o.correct_proactive_idle_s for o in outcomes),
        wrong_proactive_s=sum(o.wrong_proactive_idle_s for o in outcomes),
    )
    workflows = WorkflowCounts(
        proactive_resumes=sum(len(o.proactive_resume_times) for o in outcomes),
        reactive_resumes=sum(len(o.reactive_resume_times) for o in outcomes),
        logical_pauses=sum(len(o.logical_pause_times) for o in outcomes),
        physical_pauses=sum(len(o.physical_pause_times) for o in outcomes),
        correct_proactive_resumes=sum(o.correct_proactive_resumes for o in outcomes),
        wrong_proactive_resumes=sum(o.wrong_proactive_resumes for o in outcomes),
        maintenance_resumes=sum(len(o.maintenance_resume_times) for o in outcomes),
    )
    return KpiReport(
        policy=policy,
        n_databases=len(outcomes),
        eval_start=eval_start,
        eval_end=eval_end,
        logins=logins,
        idle=idle,
        workflows=workflows,
        unavailable_s=sum(o.unavailable_s for o in outcomes),
        used_s=sum(o.used_s for o in outcomes),
        saved_s=sum(o.saved_s() for o in outcomes),
        maintenance_s=sum(o.maintenance_s for o in outcomes),
    )


def bucket_event_times(times: List[int], start: int, end: int, bucket_s: int) -> List[int]:
    """Counts of events per ``bucket_s`` interval over [start, end) --
    the per-interval workflow volumes of Figures 11 and 12.  When
    ``bucket_s`` does not divide the window the last bucket is partial:
    it counts the events up to ``end``."""
    if bucket_s <= 0:
        raise ValueError("bucket size must be positive")
    n_buckets = max(0, -(-(end - start) // bucket_s))
    counts = [0] * n_buckets
    for t in times:
        if start <= t < end:
            counts[(t - start) // bucket_s] += 1
    return counts
