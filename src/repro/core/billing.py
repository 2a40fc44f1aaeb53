"""Serverless billing semantics (Section 2.2).

"Customers are billed per second for compute resources only while they use
these resources. ... During logical pause, the resources are still
available but customers are not billed."

The provider, however, pays for every allocated second.  The gap between
the two -- idle allocated time -- is exactly the COGS the proactive policy
optimises, so this module turns a KPI report into the provider-efficiency
view: billed seconds, allocated seconds, and the unbilled idle exposure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kpi import KpiReport


@dataclass(frozen=True)
class BillingReport:
    """Provider-vs-customer accounting for one simulation run."""

    policy: str
    #: Seconds the customer pays for (demand served with resources up).
    customer_billed_s: int
    #: Seconds the provider keeps compute allocated (billed or not).
    provider_allocated_s: int
    #: Allocated seconds nobody pays for: logical pauses and pre-warm idle.
    unbilled_idle_s: int
    #: Demand seconds the provider failed to serve (reactive-resume gaps);
    #: not billed, but a quality-of-service debt.
    unserved_demand_s: int

    @property
    def allocation_efficiency(self) -> float:
        """Fraction of allocated time that is billed (1.0 is the optimum
        of Figure 2(c): allocation equals demand)."""
        if self.provider_allocated_s == 0:
            return 0.0
        return self.customer_billed_s / self.provider_allocated_s


def billing_report(kpis: KpiReport) -> BillingReport:
    """Derive the billing view from the Section 8 KPI accounting.

    Billed time is the used quadrant (D=1, A=1); allocated time is used +
    idle; unserved demand is the unavailable quadrant.
    """
    allocated = kpis.used_s + kpis.idle.total_s
    return BillingReport(
        policy=kpis.policy,
        customer_billed_s=kpis.used_s,
        provider_allocated_s=allocated,
        unbilled_idle_s=kpis.idle.total_s,
        unserved_demand_s=kpis.unavailable_s,
    )
