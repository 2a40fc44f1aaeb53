"""One-call region digest: the full operator report for a fleet.

``region_digest`` runs every policy over the same fleet and window and
returns one plain-text report combining:

* the policy comparison (provisioned / reactive / proactive / optimal),
* the proactive policy's idle breakdown and billing efficiency,
* the per-archetype KPI drill-down,
* the hourly monitoring dashboard (the PowerBI substitute of Section 3.1:
  per-bucket sparklines counted straight from the simulation result).

This is the "show me everything" entry point a downstream operator wants
before digging into individual modules.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.analysis import format_table
from repro.analysis.archetype_report import archetype_breakdown, format_breakdown
from repro.config import DEFAULT_CONFIG, ProRPConfig
from repro.core.billing import billing_report
from repro.core.kpi import KpiReport
from repro.errors import SimulationError
from repro.observability.console import sparkline
from repro.observability.slo import SloMonitor
from repro.simulation.region import (
    RegionSimulationResult,
    SimulationSettings,
    simulate_region,
)
from repro.simulation.results import bucket_event_times
from repro.types import SECONDS_PER_HOUR, ActivityTrace, AllocationState

POLICY_ORDER = ("provisioned", "reactive", "proactive", "optimal")

#: Dashboard rows after logins and QoS: (label, workflow kind).
_WORKFLOW_ROWS = (
    ("reactive resumes", "reactive_resume"),
    ("proactive resumes", "proactive_resume"),
    ("physical pauses", "physical_pause"),
    ("logical pauses", "logical_pause"),
)


def region_digest(
    traces: Sequence[ActivityTrace],
    settings: SimulationSettings,
    config: ProRPConfig = DEFAULT_CONFIG,
    title: str = "Region digest",
    dashboard_bucket_s: int = SECONDS_PER_HOUR,
) -> str:
    """Run the four policies and render the combined report."""
    results = {
        policy: simulate_region(traces, policy, config, settings)
        for policy in POLICY_ORDER
    }
    sections: List[str] = [_policy_comparison(results, title)]
    sections.append(_proactive_detail(results["proactive"]))
    sections.append(
        format_breakdown(
            archetype_breakdown(results["proactive"].outcomes),
            title="Proactive policy by usage archetype",
        )
    )
    sections.append(
        render_dashboard(
            results["proactive"],
            traces,
            dashboard_bucket_s,
            "Proactive policy, per bucket",
        )
    )
    return "\n\n".join(sections)


def _policy_comparison(results, title: str) -> str:
    rows = []
    for policy in POLICY_ORDER:
        kpis = results[policy].kpis()
        billing = billing_report(kpis)
        rows.append(
            [
                policy,
                round(kpis.qos_percent, 1),
                round(kpis.idle_percent, 2),
                round(kpis.unavailable_percent, 3),
                round(billing.allocation_efficiency, 3),
            ]
        )
    return format_table(
        ["policy", "QoS %", "idle %", "unavailable %", "alloc efficiency"],
        rows,
        title=title,
    )


def _proactive_detail(result: RegionSimulationResult) -> str:
    kpis = result.kpis()
    workflows = kpis.workflows
    rows = [
        ["logical pause idle %", round(kpis.idle_logical_pause_percent, 2)],
        ["correct pre-warm idle %", round(kpis.idle_correct_proactive_percent, 2)],
        ["wrong pre-warm idle %", round(kpis.idle_wrong_proactive_percent, 2)],
        ["proactive resumes", workflows.proactive_resumes],
        ["  correct / wrong", f"{workflows.correct_proactive_resumes} / "
                              f"{workflows.wrong_proactive_resumes}"],
        ["reactive resumes", workflows.reactive_resumes],
        ["physical pauses", workflows.physical_pauses],
        ["cluster moves", result.cluster_moves],
    ]
    return format_table(
        ["proactive policy detail", "value"], rows, title="Proactive breakdown"
    )


def dashboard_series(
    result: RegionSimulationResult,
    traces: Sequence[ActivityTrace],
    bucket_s: int,
) -> Dict[str, List[int]]:
    """Per-bucket volumes over the evaluation window: ``"logins"`` (the
    traces' session starts) and each workflow kind of ``result``.  A
    bucket width that does not divide the window ends in a partial
    bucket."""
    settings = result.settings
    starts = [session.start for trace in traces for session in trace.sessions]
    series = {
        "logins": bucket_event_times(
            starts, settings.eval_start, settings.eval_end, bucket_s
        )
    }
    for _, kind in _WORKFLOW_ROWS:
        series[kind] = result.workflow_counts_per_interval(kind, bucket_s)
    return series


#: The windowed second ledger each allocation state's intervals feed;
#: ``slo.cogs.allocated_s`` sums the three.
_LEDGERS = {
    AllocationState.ACTIVE: "slo.cogs.used_s",
    AllocationState.IDLE_ALLOCATED: "slo.cogs.idle_s",
    AllocationState.RESUMING: "slo.cogs.unavailable_s",
}


def replay_slos(
    result: RegionSimulationResult,
    traces: Sequence[ActivityTrace],
    monitor: SloMonitor,
) -> Dict[str, int]:
    """Evaluate ``monitor``'s rules over a finished run, boundary by boundary.

    Rebuilds the windowed QoS/COGS series over the evaluation window --
    logins from the traces' session starts, reactive logins from the
    starts of the result's ``RESUMING`` intervals, the second ledgers from
    its allocation timelines (``collect_timelines=True``) -- and writes
    them into ``monitor.registry``, beside the breaker and latency series
    the run itself recorded, under the labels of the rules that read
    them.  Then evaluates every window boundary from ``sim_start`` through
    ``drain(eval_end)``.  Returns the rebuilt totals; raises
    :class:`SimulationError` when the result has no timelines or the
    totals disagree with ``result.kpis()``.
    """
    settings = result.settings
    if not settings.collect_timelines:
        raise SimulationError("replay_slos needs a run with collect_timelines=True")
    lo, hi, width = settings.eval_start, settings.eval_end, monitor.eval_period_s
    spans: Dict[AllocationState, List[List[int]]] = {state: [[], []] for state in _LEDGERS}
    for outcome in result.outcomes:
        for interval in outcome.timeline:
            starts, ends = spans[interval.state]
            starts.append(interval.start)
            ends.append(interval.end)
    first = lo // width
    edges = np.arange(first, (hi - 1) // width + 2) * width
    events = {
        "slo.qos.logins": np.fromiter(
            (session.start for trace in traces for session in trace.sessions),
            dtype=np.int64,
        ),
        "slo.qos.reactive": np.asarray(
            spans[AllocationState.RESUMING][0], dtype=np.int64
        ),
    }
    windows: Dict[str, np.ndarray] = {}
    for name, times in events.items():
        times = times[(times >= lo) & (times < hi)]
        windows[name] = np.bincount(
            (times // width - first).astype(np.int64), minlength=len(edges) - 1
        )
    for state, name in _LEDGERS.items():
        starts, ends = (np.clip(np.array(col, dtype=np.int64), lo, hi) for col in spans[state])
        windows[name] = np.diff(_covered_before(starts, ends, edges))
    windows["slo.cogs.allocated_s"] = sum(windows[name] for name in _LEDGERS.values())
    totals = {name.split(".")[-1]: int(w.sum()) for name, w in windows.items()}
    expected = slo_totals(result.kpis())
    if totals != expected:
        raise SimulationError(
            f"replayed SLO totals {totals} disagree with the KPI report {expected}"
        )

    label_sets = {
        tuple(sorted((spec.labels or {}).items()))
        for spec in monitor.specs
        if {spec.bad_series, spec.total_series, spec.series} & windows.keys()
    }
    for name, per_window in windows.items():
        for labels in label_sets:
            series = monitor.registry.counter_series(
                name, window_s=width, capacity=len(edges), labels=dict(labels)
            )
            for offset in np.flatnonzero(per_window).tolist():
                series.inc((first + offset) * width, per_window[offset].item())
    monitor.maybe_evaluate(settings.sim_start)
    monitor.drain(hi)
    return totals


def slo_totals(kpis: KpiReport) -> Dict[str, int]:
    """The totals of the windowed series :func:`replay_slos` rebuilds, as
    the KPI report states them (idle seconds include maintenance holds)."""
    idle_s = kpis.idle.total_s + kpis.maintenance_s
    return {
        "logins": kpis.logins.total,
        "reactive": kpis.logins.reactive,
        "used_s": kpis.used_s,
        "idle_s": idle_s,
        "unavailable_s": kpis.unavailable_s,
        "allocated_s": kpis.used_s + idle_s + kpis.unavailable_s,
    }


def _covered_before(starts: np.ndarray, ends: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Seconds of the intervals ``[starts, ends)`` that lie before each of
    ``at``: ``sum(clip(t - start, 0, end - start))``, from one sort and
    one prefix sum per column."""
    covered = np.zeros(len(at), dtype=np.int64)
    for column, sign in ((starts, 1), (ends, -1)):
        column = np.sort(column)
        prefix = np.concatenate(([0], np.cumsum(column)))
        before = np.searchsorted(column, at)
        covered += sign * (at * before - prefix[before])
    return covered


def render_dashboard(
    result: RegionSimulationResult,
    traces: Sequence[ActivityTrace],
    bucket_s: int,
    title: str,
) -> str:
    """The operator dashboard: one sparkline per metric plus its sum (its
    minimum for the per-bucket QoS)."""
    series = dashboard_series(result, traces, bucket_s)
    logins = series["logins"]
    qos = [
        100.0 * max(0, n - reactive) / n if n else 100.0
        for n, reactive in zip(logins, series["reactive_resume"])
    ]
    rows = [("logins", logins), ("QoS %", qos)]
    rows += [(label, series[kind]) for label, kind in _WORKFLOW_ROWS]
    width = max(len(label) for label, _ in rows)
    lines = [f"{title} — {len(logins)} buckets"]
    for label, values in rows:
        if label == "QoS %":
            summary = f"min {min(values):6.1f}"
        else:
            summary = f"sum {sum(values):6d}"
        lines.append(
            f"{label.rjust(width)}  {sparkline(values, len(values))}  {summary}"
        )
    return "\n".join(lines)
