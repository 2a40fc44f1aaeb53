"""The 'Default to Reactive' design principle (Section 3.2).

"If any component of ProRP goes down, the system must default to the
reactive policy until the failed component comes up."  These tests take
down the proactive components for a window and check the fleet degrades
to reactive behaviour during it -- and recovers after.
"""

import pytest

from repro.errors import SimulationError
from repro.simulation import SimulationSettings, simulate_region
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR, ActivityTrace, Session

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR


def daily_trace(days=32, database_id="daily"):
    return ActivityTrace(
        database_id,
        [Session(d * DAY + 9 * HOUR, d * DAY + 17 * HOUR) for d in range(days)],
        created_at=0,
    )


def settings_with_outage(outages=()):
    return SimulationSettings(
        eval_start=29 * DAY,
        eval_end=31 * DAY,
        resume_latency_jitter_s=0,
        prorp_outages=tuple(outages),
    )


class TestOutageValidation:
    def test_bad_outage_rejected(self):
        with pytest.raises(SimulationError):
            settings_with_outage([(100, 100)])


class TestDefaultToReactive:
    def test_login_during_outage_is_reactive(self):
        """ProRP is down across day 29's morning: no pre-warm, the 09:00
        login behaves exactly as under the reactive policy."""
        outage = (28 * DAY + 18 * HOUR, 29 * DAY + 12 * HOUR)
        kpis = simulate_region(
            [daily_trace()], "proactive", settings=settings_with_outage([outage])
        ).kpis()
        # Day 29 login reactive (outage), day 30 login pre-warmed (recovered).
        assert kpis.logins.total == 2
        assert kpis.logins.reactive == 1
        assert kpis.logins.with_resources == 1

    def test_no_prewarms_fire_during_outage(self):
        outage = (28 * DAY + 18 * HOUR, 29 * DAY + 12 * HOUR)
        result = simulate_region(
            [daily_trace()], "proactive", settings=settings_with_outage([outage])
        )
        for record in result.resume_iterations:
            if outage[0] <= record.time < outage[1]:
                raise AssertionError("resume operation ran during the outage")

    def test_recovery_restores_proactive_behaviour(self):
        outage = (28 * DAY + 18 * HOUR, 29 * DAY + 12 * HOUR)
        result = simulate_region(
            [daily_trace()], "proactive", settings=settings_with_outage([outage])
        )
        kpis = result.kpis()
        assert kpis.workflows.proactive_resumes == 1  # the day-30 pre-warm
        assert kpis.workflows.correct_proactive_resumes == 1

    def test_healthy_run_prewarms_both_days(self):
        kpis = simulate_region(
            [daily_trace()], "proactive", settings=settings_with_outage()
        ).kpis()
        assert kpis.logins.reactive == 0
        assert kpis.workflows.proactive_resumes == 2

    def test_outage_behaviour_matches_reactive_policy(self):
        """During a full-window outage, the 'proactive' policy's customer
        KPIs collapse onto the reactive policy's."""
        full_window = (28 * DAY, 31 * DAY)
        settings = settings_with_outage([full_window])
        degraded = simulate_region(
            [daily_trace()], "proactive", settings=settings
        ).kpis()
        reactive = simulate_region(
            [daily_trace()], "reactive", settings=settings_with_outage()
        ).kpis()
        assert degraded.logins.reactive == reactive.logins.reactive
        assert degraded.logins.with_resources == reactive.logins.with_resources
        assert degraded.workflows.proactive_resumes == 0
        assert degraded.idle.logical_pause_s == reactive.idle.logical_pause_s

    def test_accounting_identity_with_outage(self):
        from repro.workload import RegionPreset, generate_region_traces

        traces = generate_region_traces(RegionPreset.EU1, 40, span_days=32, seed=6)
        outage = (30 * DAY + 6 * HOUR, 30 * DAY + 12 * HOUR)
        settings = SimulationSettings(
            eval_start=30 * DAY, eval_end=31 * DAY, prorp_outages=(outage,)
        )
        kpis = simulate_region(traces, "proactive", settings=settings).kpis()
        assert kpis.accounted_seconds() == kpis.fleet_seconds

    def test_outage_costs_qos_on_a_fleet(self):
        from repro.workload import RegionPreset, generate_region_traces

        traces = generate_region_traces(RegionPreset.EU1, 80, span_days=32, seed=6)
        settings_ok = SimulationSettings(eval_start=30 * DAY, eval_end=31 * DAY)
        settings_down = SimulationSettings(
            eval_start=30 * DAY,
            eval_end=31 * DAY,
            prorp_outages=((29 * DAY, 31 * DAY),),
        )
        healthy = simulate_region(traces, "proactive", settings=settings_ok).kpis()
        degraded = simulate_region(traces, "proactive", settings=settings_down).kpis()
        assert degraded.qos_percent < healthy.qos_percent


class TestOutageKeepsTheFaultFlag:
    """A refresh inside an outage predicts nothing and leaves the fault
    flag as it was: a login served reactively while ProRP is down still
    counts as ``faulted`` when the refresh before the outage failed."""

    @pytest.mark.parametrize("engine", ["columnar", "actor"])
    def test_outage_refresh_leaves_fault_degraded(self, engine):
        from repro.faults import FaultPlan, FaultSpec, chaos

        # Every prediction fails, so each refresh outside the outage sets
        # the flag.  Day 28's 17:00 logout fails and pauses logically; its
        # wake at 18:00 refreshes inside the outage, which keeps the flag
        # through the physical pause to day 29's 09:00 login.
        outage = (28 * DAY + 18 * HOUR, 29 * DAY + 12 * HOUR)
        plan = FaultPlan.of(FaultSpec("predictor.exception", probability=1.0))
        settings = SimulationSettings(
            eval_start=29 * DAY,
            eval_end=31 * DAY,
            resume_latency_jitter_s=0,
            prorp_outages=(outage,),
            engine=engine,
        )
        with chaos(plan, seed=1) as injector:
            kpis = simulate_region(
                [daily_trace()], "proactive", settings=settings
            ).kpis()
        assert injector.total_fires() > 0
        assert kpis.logins.reactive == 2
        assert kpis.logins.reactive_faulted == 2
