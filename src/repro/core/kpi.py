"""KPI metrics of the ProRP infrastructure (Section 8).

Quality of service (QoS) is the percentage of first logins after an idle
interval that found resources already available (no reactive resume).
Operational cost (COGS) is the percentage of time resources sat idle while
allocated, broken down into logical pauses, correct proactive resumes (the
pre-warm gap before the customer actually logged in), and wrong proactive
resumes (pre-warmed but never used).  Overhead covers history size,
prediction latency, and the frequency of allocation/reclamation workflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


def _percent(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


@dataclass(frozen=True)
class LoginStats:
    """First logins after idle intervals, classified by resource state."""

    #: Logins that found resources allocated (logical pause or pre-warm).
    with_resources: int = 0
    #: Logins that triggered a reactive resume (resources were reclaimed).
    reactive: int = 0
    #: The subset of ``reactive`` attributable to injected faults or
    #: fault-degraded (reactive-fallback) operation rather than to the
    #: policy's own decisions -- kept separate so chaos experiments can
    #: tell "the policy was wrong" from "the infrastructure failed".
    reactive_faulted: int = 0

    @property
    def total(self) -> int:
        return self.with_resources + self.reactive

    @property
    def qos_percent(self) -> float:
        """Figure 6(a)/7(a): % of logins with resources available."""
        return _percent(self.with_resources, self.total)


@dataclass(frozen=True)
class IdleBreakdown:
    """Idle-but-allocated time by cause (Figure 6(b)/7(b)), in seconds."""

    logical_pause_s: int = 0
    correct_proactive_s: int = 0
    wrong_proactive_s: int = 0

    @property
    def total_s(self) -> int:
        return self.logical_pause_s + self.correct_proactive_s + self.wrong_proactive_s


@dataclass(frozen=True)
class WorkflowCounts:
    """Resource allocation/reclamation workflow volumes (Figures 11-12)."""

    proactive_resumes: int = 0
    reactive_resumes: int = 0
    logical_pauses: int = 0
    physical_pauses: int = 0
    #: Proactive resumes later confirmed by a customer login.
    correct_proactive_resumes: int = 0
    #: Proactive resumes that expired unused (wrong proactive resume).
    wrong_proactive_resumes: int = 0
    #: Resumes forced by system maintenance operations (Section 3.3):
    #: ignored by the policy and excluded from the customer KPIs.
    maintenance_resumes: int = 0


@dataclass(frozen=True)
class KpiReport:
    """The full KPI evaluation of one policy over one region and window."""

    policy: str
    n_databases: int
    eval_start: int
    eval_end: int
    logins: LoginStats
    idle: IdleBreakdown
    workflows: WorkflowCounts
    #: Demanded-but-unavailable seconds (the striped area of Figure 2(a)).
    unavailable_s: int = 0
    #: Demanded-and-allocated seconds (resources correctly used).
    used_s: int = 0
    #: Idle-and-reclaimed seconds (resources correctly saved).
    saved_s: int = 0
    #: Customer-idle seconds with resources held for system maintenance:
    #: a provider cost tracked outside the policy's COGS (Section 3.3).
    maintenance_s: int = 0
    #: Always empty: no engine fills it.  Figure 10(c) reads the
    #: ``predictor.reference.latency_ms`` histogram instead.  The field
    #: stays because pinned KPI digests hash ``dataclasses.asdict`` of the
    #: report.
    prediction_latencies_s: List[float] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Derived percentages
    # ------------------------------------------------------------------

    @property
    def fleet_seconds(self) -> int:
        """Total database-seconds in the evaluation window."""
        return self.n_databases * (self.eval_end - self.eval_start)

    @property
    def qos_percent(self) -> float:
        return self.logins.qos_percent

    @property
    def idle_percent(self) -> float:
        """% of fleet time with idle allocated resources (total COGS)."""
        return _percent(self.idle.total_s, self.fleet_seconds)

    @property
    def idle_logical_pause_percent(self) -> float:
        return _percent(self.idle.logical_pause_s, self.fleet_seconds)

    @property
    def idle_correct_proactive_percent(self) -> float:
        return _percent(self.idle.correct_proactive_s, self.fleet_seconds)

    @property
    def idle_wrong_proactive_percent(self) -> float:
        return _percent(self.idle.wrong_proactive_s, self.fleet_seconds)

    @property
    def unavailable_percent(self) -> float:
        return _percent(self.unavailable_s, self.fleet_seconds)

    def accounted_seconds(self) -> int:
        """used + saved + idle + unavailable (+ maintenance-held time):
        must equal fleet time -- the four quadrants of Definition 2.2
        partition every database-second, with system-maintenance holds
        tracked as their own slice of the idle quadrant."""
        return (
            self.used_s
            + self.saved_s
            + self.idle.total_s
            + self.unavailable_s
            + self.maintenance_s
        )

    def to_dict(self) -> Dict[str, object]:
        """Flat summary for the training pipeline."""
        return {
            "policy": self.policy,
            "n_databases": self.n_databases,
            "eval_start": self.eval_start,
            "eval_end": self.eval_end,
            "qos_percent": round(self.qos_percent, 3),
            "idle_percent": round(self.idle_percent, 3),
            "idle_logical_pause_percent": round(self.idle_logical_pause_percent, 3),
            "idle_correct_proactive_percent": round(
                self.idle_correct_proactive_percent, 3
            ),
            "idle_wrong_proactive_percent": round(
                self.idle_wrong_proactive_percent, 3
            ),
            "unavailable_percent": round(self.unavailable_percent, 3),
            "logins_total": self.logins.total,
            "logins_with_resources": self.logins.with_resources,
            "logins_reactive": self.logins.reactive,
            "logins_reactive_faulted": self.logins.reactive_faulted,
            "proactive_resumes": self.workflows.proactive_resumes,
            "reactive_resumes": self.workflows.reactive_resumes,
            "logical_pauses": self.workflows.logical_pauses,
            "physical_pauses": self.workflows.physical_pauses,
            "correct_proactive_resumes": self.workflows.correct_proactive_resumes,
            "wrong_proactive_resumes": self.workflows.wrong_proactive_resumes,
        }
