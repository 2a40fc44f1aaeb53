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

from repro.analysis import format_table
from repro.analysis.archetype_report import archetype_breakdown, format_breakdown
from repro.config import DEFAULT_CONFIG, ProRPConfig
from repro.core.billing import billing_report
from repro.observability.console import sparkline
from repro.simulation.region import (
    RegionSimulationResult,
    SimulationSettings,
    simulate_region,
)
from repro.simulation.results import bucket_event_times
from repro.types import SECONDS_PER_HOUR, ActivityTrace

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
