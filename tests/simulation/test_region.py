"""Region-level integration tests: fleets, KPI aggregation, and the
paper-shaped orderings between policies."""

import dataclasses

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import CapacityError, SimulationError
from repro.simulation import SimulationSettings, simulate_region
from repro.simulation.fleet import simulate_fleet
from repro.simulation.results import bucket_event_times
from repro.types import SECONDS_PER_DAY, SECONDS_PER_MINUTE, ActivityTrace
from repro.workload import RegionPreset, generate_region_traces
from repro.workload.fleetgen import FleetShardSpec

DAY = SECONDS_PER_DAY
MIN = SECONDS_PER_MINUTE


@pytest.fixture(scope="module")
def fleet():
    return generate_region_traces(RegionPreset.EU1, 120, span_days=33, seed=11)


@pytest.fixture(scope="module")
def settings():
    return SimulationSettings(eval_start=30 * DAY, eval_end=32 * DAY, seed=1)


@pytest.fixture(scope="module")
def reactive_result(fleet, settings):
    return simulate_region(fleet, "reactive", settings=settings)


@pytest.fixture(scope="module")
def proactive_result(fleet, settings):
    return simulate_region(fleet, "proactive", settings=settings)


class TestAccounting:
    def test_identity_holds_for_reactive(self, reactive_result):
        kpis = reactive_result.kpis()
        assert kpis.accounted_seconds() == kpis.fleet_seconds

    def test_identity_holds_for_proactive(self, proactive_result):
        kpis = proactive_result.kpis()
        assert kpis.accounted_seconds() == kpis.fleet_seconds

    def test_all_databases_reported(self, proactive_result, fleet):
        assert proactive_result.kpis().n_databases == len(fleet)

    def test_login_totals_match_across_policies(
        self, reactive_result, proactive_result
    ):
        """Demand is policy-independent: both policies see the same logins."""
        assert (
            reactive_result.kpis().logins.total
            == proactive_result.kpis().logins.total
        )

    def test_used_time_matches_optimal_when_no_unavailability(
        self, fleet, settings, proactive_result
    ):
        """used + unavailable = total demand (= the optimal policy's used)."""
        optimal = simulate_region(fleet, "optimal", settings=settings).kpis()
        proactive = proactive_result.kpis()
        assert proactive.used_s + proactive.unavailable_s == optimal.used_s


class TestPaperShape:
    """The qualitative results of Figures 6-7 on a small fleet."""

    def test_proactive_improves_qos(self, reactive_result, proactive_result):
        reactive = reactive_result.kpis()
        proactive = proactive_result.kpis()
        assert proactive.qos_percent > reactive.qos_percent + 10

    def test_proactive_reduces_logical_pause_idle(
        self, reactive_result, proactive_result
    ):
        assert (
            proactive_result.kpis().idle_logical_pause_percent
            < reactive_result.kpis().idle_logical_pause_percent
        )

    def test_proactive_reduces_unavailability(
        self, reactive_result, proactive_result
    ):
        assert (
            proactive_result.kpis().unavailable_s
            < reactive_result.kpis().unavailable_s
        )

    def test_reactive_has_no_proactive_workflows(self, reactive_result):
        workflows = reactive_result.kpis().workflows
        assert workflows.proactive_resumes == 0
        assert workflows.correct_proactive_resumes == 0
        assert workflows.wrong_proactive_resumes == 0

    def test_proactive_resume_counts_consistent(self, proactive_result):
        """Every pre-warm resolved inside the window is classified."""
        workflows = proactive_result.kpis().workflows
        assert workflows.proactive_resumes > 0
        assert (
            workflows.correct_proactive_resumes + workflows.wrong_proactive_resumes
            <= workflows.proactive_resumes + 5  # pre-warms issued pre-window
        )

    def test_optimal_dominates_both(self, fleet, settings, proactive_result):
        optimal = simulate_region(fleet, "optimal", settings=settings).kpis()
        assert optimal.qos_percent == 100.0
        assert optimal.idle.total_s == 0


class TestDeterminism:
    def test_same_seed_same_result(self, fleet, settings):
        a = simulate_region(fleet, "proactive", settings=settings).kpis()
        b = simulate_region(fleet, "proactive", settings=settings).kpis()
        assert a.to_dict() == b.to_dict()

    def test_fast_and_reference_predictors_agree(self, fleet):
        """The vectorised predictor must not change simulation outcomes."""
        small = fleet[:25]
        settings_fast = SimulationSettings(
            eval_start=30 * DAY, eval_end=31 * DAY, use_fast_predictor=True
        )
        settings_ref = SimulationSettings(
            eval_start=30 * DAY, eval_end=31 * DAY, use_fast_predictor=False
        )
        fast = simulate_region(small, "proactive", settings=settings_fast).kpis()
        ref = simulate_region(small, "proactive", settings=settings_ref).kpis()
        assert fast.to_dict() == ref.to_dict()


class TestResumeService:
    def test_iterations_run_every_period(self, proactive_result):
        times = [r.time for r in proactive_result.resume_iterations]
        assert times, "resume operation must run"
        diffs = {b - a for a, b in zip(times, times[1:])}
        assert diffs == {proactive_result.config.resume_operation_period_s}

    def test_prewarm_batches_bounded_by_fleet(self, proactive_result):
        batches = proactive_result.prewarm_batch_sizes()
        assert batches
        assert max(batches) <= proactive_result.kpis().n_databases

    def test_workflow_buckets_sum_to_totals(self, proactive_result):
        kpis = proactive_result.kpis()
        buckets = proactive_result.workflow_counts_per_interval(
            "physical_pause", 15 * MIN
        )
        assert sum(buckets) == kpis.workflows.physical_pauses


class TestBucketing:
    def test_bucket_event_times(self):
        counts = bucket_event_times([0, 5, 10, 15, 29], start=0, end=30, bucket_s=10)
        assert counts == [2, 2, 1]

    def test_partial_last_bucket(self):
        counts = bucket_event_times([0, 25, 29, 30], start=0, end=30, bucket_s=20)
        assert counts == [1, 2]

    def test_bucket_ignores_out_of_range(self):
        counts = bucket_event_times([-5, 35], start=0, end=30, bucket_s=10)
        assert counts == [0, 0, 0]

    def test_bad_bucket_rejected(self):
        with pytest.raises(ValueError):
            bucket_event_times([], 0, 10, 0)


class TestValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(SimulationError):
            simulate_region([], "reactive")

    def test_bad_window_rejected(self):
        with pytest.raises(SimulationError):
            SimulationSettings(eval_start=10, eval_end=10)

    @pytest.mark.parametrize("policy", ["reactive", "proactive"])
    def test_duplicate_database_id_rejected(self, fleet, settings, policy):
        """``sys.databases`` keys on the id: a second database under the
        same id fails at placement, before any metadata write."""
        twin = ActivityTrace(fleet[0].database_id, fleet[1].sessions)
        with pytest.raises(CapacityError, match="already placed"):
            simulate_region([fleet[0], twin], policy, settings=settings)

    def test_default_settings_cover_trace_tail(self, fleet):
        result = simulate_region(fleet[:5], "reactive")
        kpis = result.kpis()
        assert kpis.eval_end - kpis.eval_start == 4 * DAY


class TestSimulatedTimesAreWholeSeconds:
    """Event instants are ints, so the settings refuse a fractional time:
    the engines used to truncate it while the KPI window kept it."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"eval_end": 4 * DAY - 0.5},
            {"eval_end": 4.0 * DAY},
            {"eval_start": np.float64(3 * DAY)},
            {"warmup_s": 3600.0},
            {"warmup_s": True},
            {"prorp_outages": ((3 * DAY, 3 * DAY + 0.5),)},
            {"prorp_outages": ((False, 3 * DAY),)},
        ],
    )
    def test_non_integer_times_are_refused(self, overrides):
        with pytest.raises(SimulationError, match="whole number"):
            SimulationSettings(
                **{"eval_start": 3 * DAY, "eval_end": 4 * DAY, **overrides}
            )

    def test_numpy_integers_run_as_ints_on_both_paths(self):
        fleet = FleetShardSpec(n_databases=60, span_days=4, seed=1).materialize()
        config = dataclasses.replace(DEFAULT_CONFIG, history_days=2)
        outage = (3 * DAY + 3600, 3 * DAY + 7200)
        plain = SimulationSettings(
            eval_start=3 * DAY, eval_end=4 * DAY, prorp_outages=(outage,)
        )
        wrapped = SimulationSettings(
            eval_start=np.int64(3 * DAY),
            eval_end=np.int64(4 * DAY),
            warmup_s=np.int32(DAY),
            prorp_outages=[tuple(np.array(outage))],
        )
        assert wrapped == plain and type(wrapped.eval_end) is int
        runs = (
            lambda s: simulate_region(fleet.to_traces(), "proactive", config, s).kpis(),
            lambda s: simulate_fleet(fleet, "proactive", config, s).kpis,
        )
        for run in runs:
            kpis = run(wrapped)
            assert kpis == run(plain)
            fields = (kpis.eval_end, kpis.used_s, kpis.saved_s, kpis.unavailable_s)
            assert all(type(value) is int for value in fields)


class TestProvisionedBaseline:
    """Fixed-size provisioning: the pre-serverless baseline of Section 1."""

    def test_perfect_qos_maximal_idle(self, fleet, settings):
        kpis = simulate_region(fleet, "provisioned", settings=settings).kpis()
        assert kpis.qos_percent == 100.0
        assert kpis.unavailable_s == 0
        assert kpis.saved_s == 0  # resources are never reclaimed
        assert kpis.accounted_seconds() == kpis.fleet_seconds
        # Allocation is constant: used + idle covers the whole window.
        assert kpis.used_s + kpis.idle.total_s == kpis.fleet_seconds

    def test_idle_dominates_serverless_policies(self, fleet, settings, reactive_result):
        provisioned = simulate_region(fleet, "provisioned", settings=settings).kpis()
        assert provisioned.idle_percent > reactive_result.kpis().idle_percent

    def test_same_login_totals(self, fleet, settings, reactive_result):
        provisioned = simulate_region(fleet, "provisioned", settings=settings).kpis()
        assert provisioned.logins.total == reactive_result.kpis().logins.total


class TestMaintenanceSetting:
    def test_negative_maintenance_rejected(self):
        with pytest.raises(SimulationError):
            SimulationSettings(
                eval_start=0, eval_end=DAY, maintenance_per_week=-1.0
            )
