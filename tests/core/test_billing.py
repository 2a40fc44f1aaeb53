"""Tests for the serverless billing view (Section 2.2 semantics)."""

import pytest

from repro.core.billing import billing_report
from repro.core.kpi import IdleBreakdown, KpiReport, LoginStats, WorkflowCounts
from repro.simulation import SimulationSettings, simulate_region
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR, ActivityTrace, Session

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR


def make_kpis(used=1000, idle=200, unavailable=50):
    return KpiReport(
        policy="proactive",
        n_databases=1,
        eval_start=0,
        eval_end=10_000,
        logins=LoginStats(1, 0),
        idle=IdleBreakdown(logical_pause_s=idle),
        workflows=WorkflowCounts(),
        used_s=used,
        unavailable_s=unavailable,
        saved_s=10_000 - used - idle - unavailable,
    )


class TestBillingReport:
    def test_customers_billed_only_for_use(self):
        report = billing_report(make_kpis())
        assert report.customer_billed_s == 1000
        assert report.provider_allocated_s == 1200
        assert report.unbilled_idle_s == 200
        assert report.unserved_demand_s == 50

    def test_efficiency(self):
        report = billing_report(make_kpis(used=900, idle=100))
        assert report.allocation_efficiency == pytest.approx(0.9)

    def test_zero_allocation(self):
        report = billing_report(make_kpis(used=0, idle=0, unavailable=0))
        assert report.allocation_efficiency == 0.0

    def test_optimal_policy_bills_everything(self):
        trace = ActivityTrace(
            "d", [Session(d * DAY + 9 * HOUR, d * DAY + 17 * HOUR) for d in range(31)]
        )
        settings = SimulationSettings(eval_start=29 * DAY, eval_end=30 * DAY)
        kpis = simulate_region([trace], "optimal", settings=settings).kpis()
        report = billing_report(kpis)
        assert report.allocation_efficiency == 1.0
        assert report.unbilled_idle_s == 0

    def test_proactive_more_efficient_than_reactive(self):
        """The provider-efficiency story of Section 2.2: a daily database
        wastes less unbilled allocation under the proactive policy."""
        trace = ActivityTrace(
            "d", [Session(d * DAY + 9 * HOUR, d * DAY + 17 * HOUR) for d in range(31)]
        )
        settings = SimulationSettings(
            eval_start=29 * DAY, eval_end=30 * DAY, resume_latency_jitter_s=0
        )
        reactive = billing_report(
            simulate_region([trace], "reactive", settings=settings).kpis()
        )
        proactive = billing_report(
            simulate_region([trace], "proactive", settings=settings).kpis()
        )
        assert proactive.allocation_efficiency > reactive.allocation_efficiency
        assert proactive.unbilled_idle_s < reactive.unbilled_idle_s
        # Customers pay the same either way: billing follows demand served.
        assert proactive.customer_billed_s >= reactive.customer_billed_s
