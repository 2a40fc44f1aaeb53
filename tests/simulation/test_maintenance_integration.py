"""Maintenance operations inside the simulator (Section 3.3).

System maintenance resumes resources when needed but must be invisible to
the policy: no history events, no login classification, its held time
tracked outside the customer COGS breakdown.
"""

from repro.cluster import Cluster
from repro.config import ProRPConfig
from repro.simulation import SimulationSettings, simulate_region
from repro.simulation.actor import ProactiveActor, ReactiveActor
from repro.simulation.engine import EventQueue
from repro.simulation.results import DatabaseOutcome
from repro.storage.metadata import MetadataStore
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR, ActivityTrace, Session

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR


def run_single(trace, maintenance, policy="proactive", eval_start=29 * DAY,
               eval_end=30 * DAY, config=None):
    """Drive one database with explicit maintenance sessions."""
    settings = SimulationSettings(
        eval_start=eval_start,
        eval_end=eval_end,
        warmup_s=DAY,
        resume_latency_jitter_s=0,
        n_nodes=1,
        node_capacity=8,
    )
    queue = EventQueue(start=settings.sim_start)
    cluster = Cluster(
        n_nodes=1, node_capacity=8, resume_latency_s=60,
        resume_latency_jitter_s=0, seed=0,
    )
    metadata = MetadataStore()
    outcome = DatabaseOutcome(trace.database_id, eval_start, eval_end)
    config = config or ProRPConfig()
    if policy == "proactive":
        actor = ProactiveActor(
            trace, queue, cluster, metadata, outcome, config,
            settings.sim_start, eval_end, maintenance=maintenance,
        )
        from repro.simulation.region import _warm_history, sessions_to_csr

        (actor.history,) = _warm_history(
            sessions_to_csr([trace.sessions]), settings.sim_start, config.history_days
        )
    else:
        actor = ReactiveActor(
            trace, queue, cluster, metadata, outcome, config,
            settings.sim_start, eval_end, maintenance=maintenance,
        )
    actor.start()
    queue.run_until(eval_end)
    actor.finalize(eval_end)
    return actor, outcome


def daily_trace(days=31):
    return ActivityTrace(
        "db",
        [Session(d * DAY + 9 * HOUR, d * DAY + 17 * HOUR) for d in range(days)],
        created_at=0,
    )


class TestMaintenanceResume:
    def test_paused_database_resumed_for_maintenance(self):
        """A backup at 02:00 hits a physically paused daily database: the
        backend resumes it, holds it for the operation, then re-pauses."""
        maintenance = [Session(29 * DAY + 2 * HOUR, 29 * DAY + 2 * HOUR + 1800)]
        actor, outcome = run_single(daily_trace(), maintenance, "reactive")
        assert len(outcome.maintenance_resume_times) == 1
        assert outcome.maintenance_s == 1800
        # The database went back to physical pause right after the op.
        assert len(outcome.physical_pause_times) >= 1

    def test_maintenance_excluded_from_history(self):
        """Design principle (Section 3.3): only customer activity reaches
        sys.pause_resume_history."""
        maintenance = [Session(29 * DAY + 2 * HOUR, 29 * DAY + 2 * HOUR + 1800)]
        actor, _ = run_single(daily_trace(), maintenance, "proactive")
        events = [
            e for e in actor.history.all_events()
            if 29 * DAY <= e.time_snapshot <= 30 * DAY
        ]
        assert all(
            e.time_snapshot not in (29 * DAY + 2 * HOUR,) for e in events
        )
        # Exactly the customer start/end of day 29 inside the window.
        assert [e.time_snapshot for e in events] == [
            29 * DAY + 9 * HOUR,
            29 * DAY + 17 * HOUR,
        ]

    def test_maintenance_not_a_login(self):
        maintenance = [Session(29 * DAY + 2 * HOUR, 29 * DAY + 2 * HOUR + 1800)]
        _, outcome = run_single(daily_trace(), maintenance, "reactive")
        # Only the customer's 09:00 login is classified.
        assert outcome.logins_with_resources + outcome.logins_reactive == 1

    def test_maintenance_during_customer_activity_is_free(self):
        """An operation at noon rides on the customer session: no extra
        resume, no maintenance-held time."""
        maintenance = [Session(29 * DAY + 12 * HOUR, 29 * DAY + 12 * HOUR + 1800)]
        _, outcome = run_single(daily_trace(), maintenance, "reactive")
        assert outcome.maintenance_resume_times == []
        assert outcome.maintenance_s == 0

    def test_policy_does_not_reclaim_mid_maintenance(self):
        """The customer leaves while an operation runs: resources are held
        until the operation finishes, then the policy decides."""
        # Operation spans the end of the workday (16:30 - 17:30).
        maintenance = [
            Session(29 * DAY + 16 * HOUR + 1800, 29 * DAY + 17 * HOUR + 1800)
        ]
        _, outcome = run_single(daily_trace(), maintenance, "proactive")
        # Held from 17:00 (customer gone) to 17:30 (operation end).
        assert outcome.maintenance_s == 1800

    def test_reactive_l_window_survives_maintenance_segmentation(self):
        """Under the reactive policy the database still pauses physically
        exactly l after the customer left, maintenance or not."""
        maintenance = [
            Session(29 * DAY + 16 * HOUR + 1800, 29 * DAY + 17 * HOUR + 1800)
        ]
        _, outcome = run_single(
            daily_trace(), maintenance, "reactive", eval_end=30 * DAY
        )
        # 17:00 + 7h = 24:00 physical pause; idle booked: 30min maintenance
        # + 6.5h logical pause.
        assert outcome.maintenance_s == 1800
        assert outcome.logical_pause_idle_s == 7 * HOUR - 1800


class TestRegionLevelMaintenance:
    def test_accounting_identity_with_maintenance(self):
        from repro.workload import RegionPreset, generate_region_traces

        traces = generate_region_traces(RegionPreset.EU2, 40, span_days=32, seed=8)
        settings = SimulationSettings(
            eval_start=30 * DAY, eval_end=31 * DAY, maintenance_per_week=3.0
        )
        for policy in ("reactive", "proactive"):
            kpis = simulate_region(traces, policy, settings=settings).kpis()
            assert kpis.accounted_seconds() == kpis.fleet_seconds
            assert kpis.maintenance_s >= 0

    def test_maintenance_causes_extra_resumes_on_paused_fleet(self):
        from repro.workload import RegionPreset, generate_region_traces

        traces = generate_region_traces(RegionPreset.EU2, 60, span_days=32, seed=8)
        settings_off = SimulationSettings(eval_start=30 * DAY, eval_end=31 * DAY)
        settings_on = SimulationSettings(
            eval_start=30 * DAY, eval_end=31 * DAY, maintenance_per_week=5.0
        )
        off = simulate_region(traces, "proactive", settings=settings_off).kpis()
        on = simulate_region(traces, "proactive", settings=settings_on).kpis()
        assert off.workflows.maintenance_resumes == 0
        assert on.workflows.maintenance_resumes > 0
        assert on.maintenance_s > 0

    def test_customer_kpis_insensitive_to_maintenance(self):
        """Logins and their classification describe customer experience;
        maintenance may only improve it (resources happen to be up)."""
        from repro.workload import RegionPreset, generate_region_traces

        traces = generate_region_traces(RegionPreset.EU2, 60, span_days=32, seed=8)
        base = SimulationSettings(eval_start=30 * DAY, eval_end=31 * DAY)
        with_maint = SimulationSettings(
            eval_start=30 * DAY, eval_end=31 * DAY, maintenance_per_week=5.0
        )
        off = simulate_region(traces, "proactive", settings=base).kpis()
        on = simulate_region(traces, "proactive", settings=with_maint).kpis()
        assert on.logins.total == off.logins.total
        assert on.logins.with_resources >= off.logins.with_resources
