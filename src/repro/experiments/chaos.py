"""Chaos experiment: sweep fault rate against the paper's KPIs.

Every row arms the fault injector with one plan (by default a uniform plan
over a small set of high-impact fault points), simulates the proactive
policy over the same fleet, and reports QoS, COGS, and the resilience
ledger (fault fires, scan retries, predictor breaker opens).  Rate 0.0 is
the control: its KPIs are byte-identical to an un-chaosed run, which the
test suite asserts.

Determinism: each sweep task arms ``FAULTS`` *inside* the worker function
with a per-point-seeded injector, so a task's fault schedule depends only
on (plan, seed) -- not on which process ran it or in what order.  Serial
and multiprocess executors therefore produce identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import format_table
from repro.config import DEFAULT_CONFIG
from repro.core.policy import PolicyKind
from repro.experiments.common import (
    BENCH_SCALE,
    ExperimentScale,
    region_fleet,
    sweep_map,
)
from repro.faults import FaultPlan, FaultSpec, chaos
from repro.observability import (
    NULL_TRACER,
    AlertLedger,
    MetricsRegistry,
    SloMonitor,
    simulation_slos,
)
from repro.observability.runtime import observed
from repro.parallel import SweepExecutor
from repro.report import replay_slos, slo_totals
from repro.simulation.region import simulate_region
from repro.workload.regions import RegionPreset

#: The x-axis of the default chaos sweep: per-consultation fault
#: probability applied uniformly to every swept point.
DEFAULT_FAULT_RATES = (0.0, 0.02, 0.05, 0.1)

#: High-impact fault points swept by default: predictor failures trip the
#: breaker into reactive fallback, scan outages starve the pre-warm cycle
#: (bounded by its retry policy), and node crashes stretch resume latency.
DEFAULT_POINTS = (
    "predictor.exception",
    "resume.scan.unavailable",
    "cluster.node.crash",
)


@dataclass(frozen=True)
class ChaosResult:
    """One row per swept plan, in sweep order."""

    rows_by_rate: List[Dict[str, object]]

    def rows(self) -> List[Dict[str, object]]:
        return self.rows_by_rate

    def qos_monotonic(self, tolerance: float = 0.0) -> bool:
        """Whether QoS is non-increasing as the fault rate grows (within
        ``tolerance`` percentage points of slack per step).  Only
        meaningful for the rate sweep; rows are compared in sweep order."""
        qos = [float(row["qos_percent"]) for row in self.rows_by_rate]
        return all(b <= a + tolerance for a, b in zip(qos, qos[1:]))

    def table(self) -> str:
        rows = [
            [
                row["fault_rate"],
                round(float(row["qos_percent"]), 1),
                round(float(row["idle_percent"]), 2),
                round(float(row["unavailable_percent"]), 2),
                row["logins_reactive_faulted"],
                row["fault_fires"],
                row["scan_retries"],
                row["breaker_opens"],
            ]
            for row in self.rows_by_rate
        ]
        return format_table(
            [
                "fault rate",
                "QoS%",
                "idle%",
                "unavail%",
                "faulted logins",
                "fires",
                "retries",
                "breaker opens",
            ],
            rows,
            title="Chaos: fault rate vs QoS/COGS (uniform plan over swept points)",
        )


def _chaos_worker(
    context: Tuple[str, ExperimentScale], item: Tuple[object, Dict[str, object]]
) -> Dict[str, object]:
    """One sweep task: arm the plan, simulate, report KPIs + fault ledger.

    Arming happens here, inside the worker, so the multiprocess backend
    reproduces the serial schedule exactly (see the module docstring).
    """
    preset_value, scale = context
    rate, plan_doc = item
    plan = FaultPlan.from_dict(plan_doc)
    traces = region_fleet(RegionPreset(preset_value), scale)
    with chaos(plan, seed=scale.seed) as injector:
        result = simulate_region(
            traces, PolicyKind.PROACTIVE, DEFAULT_CONFIG, scale.settings()
        )
        kpis = result.kpis()
        ledger = injector.snapshot()
    events = ledger["events"]
    return {
        "fault_rate": rate,
        "qos_percent": round(kpis.qos_percent, 3),
        "idle_percent": round(kpis.idle_percent, 3),
        "unavailable_percent": round(kpis.unavailable_percent, 3),
        "logins_total": kpis.logins.total,
        "logins_reactive": kpis.logins.reactive,
        "logins_reactive_faulted": kpis.logins.reactive_faulted,
        "fault_fires": sum(ledger["fires"].values()),
        "fault_consults": sum(ledger["consults"].values()),
        "scan_retries": events.get("retry.resume.scan", 0),
        "breaker_opens": events.get("breaker.predictor.open", 0),
    }


def run_chaos(
    scale: ExperimentScale = BENCH_SCALE,
    preset: RegionPreset = RegionPreset.EU1,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    points: Sequence[str] = DEFAULT_POINTS,
    plan: Optional[FaultPlan] = None,
    executor: Optional[SweepExecutor] = None,
    workers: Optional[int] = None,
) -> ChaosResult:
    """Run the chaos sweep.

    With the default arguments this sweeps ``fault_rates`` as uniform
    plans over ``points``.  An explicit ``plan`` replaces the sweep with a
    single run of exactly that plan (its row's ``fault_rate`` is the
    string ``"plan"``).
    """
    if plan is not None:
        items: List[Tuple[object, Dict[str, object]]] = [("plan", plan.to_dict())]
    else:
        items = [
            (rate, FaultPlan.uniform(points, rate).to_dict())
            for rate in fault_rates
        ]
    rows = sweep_map(
        _chaos_worker, (preset.value, scale), items, executor, workers
    )
    return ChaosResult(rows)


# -- SLO alerting scenario ----------------------------------------------


@dataclass(frozen=True)
class SloChaosResult:
    """Outcome of :func:`run_slo_chaos`: the alert ledger round trip and
    the replayed-vs-batch KPI reconciliation."""

    fast_window_s: int
    fault_window: Tuple[int, int]
    latency_window: Tuple[int, int]
    unavailable_fired_at: Optional[float]
    unavailable_cleared_at: Optional[float]
    latency_fired_at: Optional[float]
    latency_cleared_at: Optional[float]
    alert_events: List[Dict[str, object]] = field(default_factory=list)
    #: Totals of the windowed ``slo.*`` series the replay rebuilt.
    replayed: Dict[str, int] = field(default_factory=dict)
    #: The same quantities from the simulator's ``KpiReport``.
    report: Dict[str, int] = field(default_factory=dict)
    #: Logins counted straight from the traces' session starts in the
    #: evaluation window (independent of the engine's accounting).
    trace_logins: int = 0

    @property
    def alert_roundtrip_ok(self) -> bool:
        """The breaker alert fired within one fast window of the fault
        window (which is where the breaker can open) and later cleared;
        the latency alert did the same for its own window."""
        a_start, a_end = self.fault_window
        b_start, b_end = self.latency_window
        checks = [
            self.unavailable_fired_at is not None
            and a_start <= self.unavailable_fired_at
            <= a_end + self.fast_window_s,
            self.unavailable_cleared_at is not None
            and self.unavailable_cleared_at > self.unavailable_fired_at,
            self.latency_fired_at is not None
            and b_start <= self.latency_fired_at <= b_end + self.fast_window_s,
            self.latency_cleared_at is not None
            and self.latency_cleared_at > self.latency_fired_at,
        ]
        return all(checks)

    @property
    def equivalence_ok(self) -> bool:
        """Summed windowed series == KpiReport (== the traces, on logins)."""
        s, r = self.replayed, self.report
        return s == r and s["logins"] == self.trace_logins

    @property
    def ok(self) -> bool:
        return self.alert_roundtrip_ok and self.equivalence_ok

    def table(self) -> str:
        rows = [
            [
                event["name"],
                event["state"],
                event["severity"],
                int(event["time"]),
                round(float(event["value"]), 3),
            ]
            for event in self.alert_events
        ]
        return format_table(
            ["alert", "state", "severity", "sim time", "value"],
            rows,
            title=(
                "SLO chaos: predictor outage + latency spike "
                f"(roundtrip {'ok' if self.alert_roundtrip_ok else 'FAILED'}, "
                f"replayed==batch {'ok' if self.equivalence_ok else 'FAILED'})"
            ),
        )


def run_slo_chaos(
    scale: ExperimentScale = BENCH_SCALE,
    preset: RegionPreset = RegionPreset.EU1,
    fast_window_s: int = 900,
    latency_s: float = 0.25,
) -> SloChaosResult:
    """Chaos scenario for the SLO pipeline (the alerting round trip).

    Arms two scheduled faults against a proactive run, then replays the
    finished run through the stock
    :func:`~repro.observability.slo.simulation_slos` rule set
    (:func:`repro.report.replay_slos`):

    * ``predictor.exception`` at p=1.0 for the first two fast windows of
      the evaluation window -- every prediction fails, the predictor
      circuit breaker opens, and the ``predictor_unavailable`` threshold
      alert must fire within one fast window and clear once the breaker
      re-closes after its recovery period;
    * ``predictor.latency`` (+``latency_s`` per call) over a later,
      disjoint window -- the ``predictor_latency_p99`` alert must fire
      and clear the same way.

    The run also reconciles the replayed KPI series against the
    simulator's :class:`~repro.core.kpi.KpiReport`, and both login counts
    against the traces' own session starts in the evaluation window --
    the replayed == batch equivalence this scenario exists to pin.
    """
    settings = scale.settings(
        use_fast_predictor=False,  # route predictions through the
        # instrumented reference predictor so the latency fault lands
        collect_timelines=True,
    )
    eval_start, eval_end = settings.eval_start, settings.eval_end
    # Both fault windows sit in business hours of the first evaluation
    # day: the synthetic weekday fleets predict a handful of times per
    # fast window there, enough for the breaker's five consecutive
    # failures (a window at the quiet day boundary would see none).
    fault_window = (
        eval_start + 32 * fast_window_s,
        eval_start + 40 * fast_window_s,
    )
    latency_window = (
        eval_start + 60 * fast_window_s,
        eval_start + 68 * fast_window_s,
    )
    if latency_window[1] > eval_end:
        raise ValueError(
            "evaluation window too short for the SLO chaos schedule "
            f"(needs >= {68 * fast_window_s} s, has {eval_end - eval_start})"
        )
    plan = FaultPlan.of(
        FaultSpec(
            point="predictor.exception",
            probability=1.0,
            windows=(fault_window,),
        ),
        FaultSpec(
            point="predictor.latency",
            probability=1.0,
            latency_s=latency_s,
            windows=(latency_window,),
        ),
    )

    traces = region_fleet(preset, scale)
    labels = {"region": preset.value}
    metrics = MetricsRegistry()
    ledger = AlertLedger()
    monitor = SloMonitor(
        metrics,
        simulation_slos(labels=labels, fast_window_s=fast_window_s),
        ledger=ledger,
    )
    with chaos(plan, seed=scale.seed):
        with observed(tracer=NULL_TRACER, metrics=metrics):
            result = simulate_region(
                traces, PolicyKind.PROACTIVE, DEFAULT_CONFIG, settings
            )
    replayed = replay_slos(result, traces, monitor)
    trace_logins = sum(
        1
        for trace in traces
        for session in trace.sessions
        if eval_start <= session.start < eval_end
    )
    return SloChaosResult(
        fast_window_s=fast_window_s,
        fault_window=fault_window,
        latency_window=latency_window,
        unavailable_fired_at=ledger.first_time(
            "predictor_unavailable", "firing"
        ),
        unavailable_cleared_at=ledger.first_time(
            "predictor_unavailable", "cleared"
        ),
        latency_fired_at=ledger.first_time("predictor_latency_p99", "firing"),
        latency_cleared_at=ledger.first_time(
            "predictor_latency_p99", "cleared"
        ),
        alert_events=[
            {
                "time": event.time,
                "name": event.name,
                "state": event.state,
                "severity": event.severity,
                "value": event.value,
                "detail": event.detail,
            }
            for event in ledger.events
        ],
        replayed=replayed,
        report=slo_totals(result.kpis()),
        trace_logins=trace_logins,
    )
