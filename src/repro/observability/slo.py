"""Declarative SLOs with multi-window burn-rate alerting.

The paper reports QoS (fraction of logins that needed a reactive resume,
§8) and COGS (idle-but-allocated time) *after* a run; a production ProRP
control plane watches the same quantities live and pages when the error
budget burns too fast.  This module is that monitoring plane:

* :class:`SloSpec` -- one declarative rule: either a **burn-rate** SLO
  (bad-event series / total-event series vs an objective, evaluated over
  a fast and a slow window, Google-SRE style) or a **threshold** SLO (a
  statistic of one series vs a limit -- breaker state, p99 latency).
* :class:`SloMonitor` -- evaluates every spec on window boundaries as
  the clock advances (the serving gateway ticks it live; a finished
  simulation is replayed through it by :func:`repro.report.replay_slos`),
  applies hysteresis, and writes ``slo.*`` gauges back into the registry
  so the exposition layer exports alert state like any other metric.
* :class:`AlertLedger` -- the append-only record of firing/cleared
  transitions; chaos scenarios assert against it ("the breaker opening
  raised ``predictor_unavailable`` within one fast window").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ProRPError
from repro.observability.metrics import MetricsRegistry
from repro.observability.timeseries import (
    DEFAULT_WINDOW_S,
    CounterSeries,
    GaugeSeries,
    HistogramSeries,
)

#: Default slow window: 4 fast windows.  Short enough that simulation
#: runs (1-3 evaluation days) see many slow windows, long enough to damp
#: single-window blips.
DEFAULT_SLOW_FACTOR = 4

#: Default burn-rate thresholds.  With a 0.1 objective these correspond
#: to "the fast window burned >= 6x budget AND the slow window >= 3x" --
#: tuned so a real incident fires on the first boundary after onset but
#: a single bad window inside an otherwise clean slow window does not.
DEFAULT_FAST_BURN = 6.0
DEFAULT_SLOW_BURN = 3.0

_STATS = ("sum", "max", "last", "p50", "p95", "p99")


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective, declaratively.

    ``kind="burn_rate"``: ``bad_series / total_series`` over the fast
    and slow windows, each divided by ``objective`` (the budgeted bad
    fraction); fires when *both* burn rates exceed their thresholds.

    ``kind="threshold"``: ``stat`` of ``series`` over the fast window
    (``last`` for gauges, ``sum`` for counters, percentiles for
    histogram series) compared against ``limit``; fires on >=.
    """

    name: str
    kind: str  # "burn_rate" | "threshold"
    description: str = ""
    severity: str = "page"  # "page" | "ticket"
    labels: Optional[Dict[str, str]] = None
    # burn-rate fields
    bad_series: str = ""
    total_series: str = ""
    objective: float = 0.0
    fast_burn: float = DEFAULT_FAST_BURN
    slow_burn: float = DEFAULT_SLOW_BURN
    # threshold fields
    series: str = ""
    stat: str = "sum"
    limit: float = 0.0
    # shared windowing
    fast_window_s: float = DEFAULT_WINDOW_S
    slow_window_s: float = DEFAULT_WINDOW_S * DEFAULT_SLOW_FACTOR
    #: consecutive clean evaluations before a firing alert clears
    clear_after: int = 2

    def __post_init__(self):
        if self.kind not in ("burn_rate", "threshold"):
            raise ProRPError(f"slo {self.name!r}: unknown kind {self.kind!r}")
        if self.severity not in ("page", "ticket"):
            raise ProRPError(
                f"slo {self.name!r}: unknown severity {self.severity!r}"
            )
        if self.fast_window_s <= 0 or self.slow_window_s < self.fast_window_s:
            raise ProRPError(
                f"slo {self.name!r}: need 0 < fast_window_s <= slow_window_s"
            )
        if self.clear_after < 1:
            raise ProRPError(f"slo {self.name!r}: clear_after must be >= 1")
        if self.kind == "burn_rate":
            if not self.bad_series or not self.total_series:
                raise ProRPError(
                    f"slo {self.name!r}: burn_rate needs bad_series and "
                    f"total_series"
                )
            if not 0.0 < self.objective < 1.0:
                raise ProRPError(
                    f"slo {self.name!r}: objective must be in (0, 1)"
                )
            if self.fast_burn <= 0 or self.slow_burn <= 0:
                raise ProRPError(
                    f"slo {self.name!r}: burn thresholds must be > 0"
                )
        else:
            if not self.series:
                raise ProRPError(f"slo {self.name!r}: threshold needs series")
            if self.stat not in _STATS:
                raise ProRPError(
                    f"slo {self.name!r}: unknown stat {self.stat!r} "
                    f"(one of {_STATS})"
                )

    def to_dict(self) -> Dict[str, object]:
        """The alert-rule schema documented in docs/observability.md."""
        doc: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "severity": self.severity,
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "clear_after": self.clear_after,
        }
        if self.description:
            doc["description"] = self.description
        if self.labels:
            doc["labels"] = dict(self.labels)
        if self.kind == "burn_rate":
            doc.update(
                bad_series=self.bad_series,
                total_series=self.total_series,
                objective=self.objective,
                fast_burn=self.fast_burn,
                slow_burn=self.slow_burn,
            )
        else:
            doc.update(series=self.series, stat=self.stat, limit=self.limit)
        return doc


@dataclass(frozen=True)
class AlertEvent:
    """One firing/cleared transition in the ledger."""

    time: float
    name: str
    state: str  # "firing" | "cleared"
    severity: str
    value: float
    detail: str = ""


class AlertLedger:
    """Append-only record of alert transitions, queryable by scenario
    assertions and rendered by the health endpoint / ``observe --top``."""

    def __init__(self) -> None:
        self.events: List[AlertEvent] = []
        self._active: Dict[str, AlertEvent] = {}

    def append(self, event: AlertEvent) -> None:
        self.events.append(event)
        if event.state == "firing":
            self._active[event.name] = event
        else:
            self._active.pop(event.name, None)

    def active(self) -> List[AlertEvent]:
        """Currently-firing alerts, in firing order."""
        return sorted(self._active.values(), key=lambda e: e.time)

    def is_firing(self, name: str) -> bool:
        return name in self._active

    def first_time(self, name: str, state: str) -> Optional[float]:
        for event in self.events:
            if event.name == name and event.state == state:
                return event.time
        return None

    def fired_count(self) -> int:
        return sum(1 for e in self.events if e.state == "firing")

    def cleared_count(self) -> int:
        return sum(1 for e in self.events if e.state == "cleared")


@dataclass
class _AlertState:
    firing: bool = False
    clean_streak: int = 0


class SloMonitor:
    """Continuous evaluation of a set of :class:`SloSpec` rules.

    ``maybe_evaluate(now)`` is safe to call per event: it is a
    single comparison until the clock crosses the next evaluation
    boundary (the smallest fast window across the specs), at which point
    every spec is evaluated against its *complete* windows.  Evaluation
    results are mirrored into the registry as ``slo.<name>.*`` gauges so
    the OpenMetrics endpoint exports live alert state.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        specs: Tuple[SloSpec, ...],
        eval_period_s: Optional[float] = None,
        ledger: Optional[AlertLedger] = None,
    ):
        if not specs:
            raise ProRPError("SloMonitor needs at least one SloSpec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ProRPError(f"duplicate SLO names: {sorted(names)}")
        self.registry = registry
        self.specs = tuple(specs)
        self.ledger = ledger if ledger is not None else AlertLedger()
        self.eval_period_s = (
            eval_period_s
            if eval_period_s is not None
            else min(spec.fast_window_s for spec in specs)
        )
        if self.eval_period_s <= 0:
            raise ProRPError("eval_period_s must be > 0")
        self._states: Dict[str, _AlertState] = {
            spec.name: _AlertState() for spec in specs
        }
        self._next_eval: Optional[float] = None

    # -- clock ----------------------------------------------------------
    def maybe_evaluate(self, now: float) -> None:
        """Evaluate any window boundaries the clock has crossed."""
        if self._next_eval is None:
            # Align to the next boundary; never evaluate the partial
            # window the monitor was born into.
            self._next_eval = (now // self.eval_period_s + 1) * self.eval_period_s
            return
        while now >= self._next_eval:
            self.evaluate(self._next_eval)
            self._next_eval += self.eval_period_s

    def drain(self, now: float) -> None:
        """Run every pending boundary up to and including ``now`` (end of
        a simulation: windows before ``now`` are complete by definition)."""
        self.maybe_evaluate(now)
        if self._next_eval is not None and now > self._next_eval - self.eval_period_s:
            self.evaluate(now)
            self._next_eval = (now // self.eval_period_s + 1) * self.eval_period_s

    # -- evaluation -----------------------------------------------------
    def evaluate(self, now: float) -> List[AlertEvent]:
        """Evaluate every spec at ``now``; returns transitions appended."""
        self.registry.counter("slo.evaluations").inc()
        transitions: List[AlertEvent] = []
        for spec in self.specs:
            value, breached, detail = self._evaluate_spec(spec, now)
            self.registry.gauge(f"slo.{spec.name}.value").set(round(value, 6))
            state = self._states[spec.name]
            if not state.firing:
                if breached:
                    state.firing = True
                    state.clean_streak = 0
                    event = AlertEvent(
                        time=now,
                        name=spec.name,
                        state="firing",
                        severity=spec.severity,
                        value=value,
                        detail=detail,
                    )
                    self.ledger.append(event)
                    transitions.append(event)
                    self.registry.counter("slo.alerts.fired").inc()
            else:
                if breached:
                    state.clean_streak = 0
                else:
                    state.clean_streak += 1
                    if state.clean_streak >= spec.clear_after:
                        state.firing = False
                        state.clean_streak = 0
                        event = AlertEvent(
                            time=now,
                            name=spec.name,
                            state="cleared",
                            severity=spec.severity,
                            value=value,
                            detail=detail,
                        )
                        self.ledger.append(event)
                        transitions.append(event)
                        self.registry.counter("slo.alerts.cleared").inc()
            self.registry.gauge(f"slo.{spec.name}.firing").set(
                1 if state.firing else 0
            )
        self.registry.gauge("slo.alerts.active").set(len(self.ledger.active()))
        return transitions

    def _evaluate_spec(
        self, spec: SloSpec, now: float
    ) -> Tuple[float, bool, str]:
        if spec.kind == "burn_rate":
            fast = self._burn(spec, now, spec.fast_window_s)
            slow = self._burn(spec, now, spec.slow_window_s)
            breached = fast >= spec.fast_burn and slow >= spec.slow_burn
            detail = (
                f"burn fast={fast:.2f}x (>= {spec.fast_burn}x) "
                f"slow={slow:.2f}x (>= {spec.slow_burn}x)"
            )
            return fast, breached, detail
        value = self._stat(spec, now)
        breached = value >= spec.limit
        detail = f"{spec.stat}={value:.4g} (limit {spec.limit:.4g})"
        return value, breached, detail

    def _burn(self, spec: SloSpec, now: float, span_s: float) -> float:
        bad = self._series(spec.bad_series, spec.labels)
        total = self._series(spec.total_series, spec.labels)
        n_bad = bad.sum_last(now, span_s) if isinstance(bad, CounterSeries) else 0
        n_total = (
            total.sum_last(now, span_s) if isinstance(total, CounterSeries) else 0
        )
        if n_total <= 0:
            return 0.0
        return (n_bad / n_total) / spec.objective

    def _stat(self, spec: SloSpec, now: float) -> float:
        series = self._series(spec.series, spec.labels)
        if series is None:
            return 0.0
        span = spec.fast_window_s
        if isinstance(series, CounterSeries):
            if spec.stat == "last":
                return float(series.value_at(now))
            return float(series.sum_last(now, span))
        if isinstance(series, GaugeSeries):
            value = series.max_last(now, span) if spec.stat == "max" else None
            if value is None:
                value = series.last_before(now)
            return float(value) if value is not None else 0.0
        if isinstance(series, HistogramSeries):
            if spec.stat.startswith("p"):
                return series.percentile_last(now, span, float(spec.stat[1:]))
            if spec.stat == "sum":
                return float(series.count_last(now, span))
            return series.percentile_last(now, span, 100.0)
        return 0.0

    def _series(self, name: str, labels: Optional[Dict[str, str]]):
        metric = self.registry.get(name, labels)
        if metric is None and labels:
            # Fall back to the unlabelled stream so one rule set works
            # for both labelled (fleet) and plain (single-region) runs.
            metric = self.registry.get(name)
        return metric


def simulation_slos(
    labels: Optional[Dict[str, str]] = None,
    fast_window_s: float = DEFAULT_WINDOW_S,
    qos_objective: float = 0.10,
    cogs_objective: float = 0.60,
    predictor_p99_limit_ms: float = 50.0,
) -> Tuple[SloSpec, ...]:
    """The stock rule set for simulation runs: the paper's KPIs as SLOs.

    * ``qos_violation`` -- fraction of logins needing a reactive resume
      (the paper's QoS metric, §8) burning >= ``qos_objective`` budget.
    * ``predictor_unavailable`` -- the predictor circuit breaker is open
      (gauge written by :class:`repro.faults.CircuitBreaker`).
    * ``predictor_latency_p99`` -- reference-predictor p99 over the fast
      window exceeds the limit.
    * ``cogs_idle`` -- idle (unbilled-but-provisioned) share of allocated
      seconds, the paper's COGS proxy, burning >= ``cogs_objective``.
    """
    slow = fast_window_s * DEFAULT_SLOW_FACTOR
    return (
        SloSpec(
            name="qos_violation",
            kind="burn_rate",
            description="reactive-resume fraction exceeds the QoS budget",
            bad_series="slo.qos.reactive",
            total_series="slo.qos.logins",
            objective=qos_objective,
            labels=labels,
            fast_window_s=fast_window_s,
            slow_window_s=slow,
        ),
        SloSpec(
            name="predictor_unavailable",
            kind="threshold",
            description="predictor circuit breaker is open",
            series="breaker.predictor.state.window",
            stat="last",
            limit=1.0,
            labels=None,  # breaker state is process-global, never labelled
            fast_window_s=fast_window_s,
            slow_window_s=slow,
        ),
        SloSpec(
            name="predictor_latency_p99",
            kind="threshold",
            description="reference predictor p99 latency over the limit",
            series="predictor.latency_ms.window",
            stat="p99",
            limit=predictor_p99_limit_ms,
            severity="ticket",
            labels=None,
            fast_window_s=fast_window_s,
            slow_window_s=slow,
        ),
        SloSpec(
            name="cogs_idle",
            kind="burn_rate",
            description="idle share of allocated seconds over the COGS budget",
            bad_series="slo.cogs.idle_s",
            total_series="slo.cogs.allocated_s",
            objective=cogs_objective,
            severity="ticket",
            labels=labels,
            fast_window_s=fast_window_s,
            slow_window_s=slow,
        ),
    )


def serving_slos(
    fast_window_s: float = 1.0,
    shed_objective: float = 0.05,
    latency_p99_limit_ms: float = 100.0,
) -> Tuple[SloSpec, ...]:
    """The stock rule set for the serving gateway (wall-clock windows)."""
    slow = fast_window_s * DEFAULT_SLOW_FACTOR
    return (
        SloSpec(
            name="shed_rate",
            kind="burn_rate",
            description="shed fraction of arriving requests over budget",
            bad_series="serving.shed.window",
            total_series="serving.requests.window",
            objective=shed_objective,
            fast_window_s=fast_window_s,
            slow_window_s=slow,
        ),
        SloSpec(
            name="serving_latency_p99",
            kind="threshold",
            description="end-to-end request p99 latency over the limit",
            series="serving.latency_ms.window",
            stat="p99",
            limit=latency_p99_limit_ms,
            severity="ticket",
            fast_window_s=fast_window_s,
            slow_window_s=slow,
        ),
    )


__all__ = [
    "SloSpec",
    "AlertEvent",
    "AlertLedger",
    "SloMonitor",
    "simulation_slos",
    "serving_slos",
    "DEFAULT_FAST_BURN",
    "DEFAULT_SLOW_BURN",
    "DEFAULT_SLOW_FACTOR",
]
