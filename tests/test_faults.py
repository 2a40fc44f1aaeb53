"""Tests for the fault-injection and resilience subsystem.

Covers the declarative plans, the deterministic injector, the resilience
primitives (retry/deadline/breaker), the runtime switch, every wired
fault point, and the chaos experiment's determinism guarantees: an armed
empty plan is byte-identical to a disarmed run, and serial vs
multiprocess chaos sweeps produce identical rows.
"""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings as hsettings, strategies as st

import repro
from repro.cluster import Cluster
from repro.config import DEFAULT_CONFIG
from repro.controlplane.workflows import (
    CRASH_POINT,
    STUCK_POINT,
    WorkflowEngine,
    WorkflowKind,
    WorkflowState,
)
from repro.core.policy import PolicyKind
from repro.core.resume_service import SCAN_FAULT_POINT, ProactiveResumeOperation
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    FaultPlanError,
    SqlExecutionError,
    StorageError,
)
from repro.experiments.chaos import DEFAULT_POINTS, run_chaos
from repro.experiments.common import TEST_SCALE, region_fleet
from repro.faults import (
    FAULTS,
    BreakerState,
    CircuitBreaker,
    Deadline,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    arm,
    chaos,
    disarm,
)
from repro.faults.plan import FAULT_POINTS
from repro.parallel.multiprocess import MultiprocessExecutor
from repro.parallel.serial import SerialExecutor
from repro.simulation.actor import PREDICTOR_FAULT_POINT
from repro.simulation.region import simulate_region
from repro.sqlengine.engine import EXECUTE_FAULT_POINT, SqlEngine
from repro.storage.database import Database
from repro.storage.metadata import MetadataStore
from repro.workload.regions import RegionPreset


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with fault injection off."""
    disarm()
    yield
    disarm()


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec("sql.execute")
        assert spec.probability == 1.0
        assert spec.windows == ()
        assert spec.max_fires is None
        assert spec.active(0) and spec.active(None)

    def test_validation(self):
        with pytest.raises(FaultPlanError):
            FaultSpec("")
        with pytest.raises(FaultPlanError):
            FaultSpec("p", probability=1.5)
        with pytest.raises(FaultPlanError):
            FaultSpec("p", max_fires=-1)
        with pytest.raises(FaultPlanError):
            FaultSpec("p", latency_s=-0.1)
        with pytest.raises(FaultPlanError):
            FaultSpec("p", windows=((10, 10),))
        with pytest.raises(FaultPlanError):
            FaultSpec("p", windows=((1, 2, 3),))

    def test_windows_schedule(self):
        spec = FaultSpec("p", windows=((100, 200), (300, 400)))
        assert not spec.active(99)
        assert spec.active(100)
        assert not spec.active(200)
        assert spec.active(350)
        # A consultation without a timestamp ignores the schedule.
        assert spec.active(None)

    def test_dict_round_trip(self):
        spec = FaultSpec("sql.execute", probability=0.5, windows=((1, 2),),
                         max_fires=3, latency_s=0.25)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec.from_dict({"point": "sql.execute", "probabilty": 0.5})

    @pytest.mark.parametrize("point", ["p", "predictor.exceptions", "Sql.execute"])
    def test_unknown_point_rejected(self, point, tmp_path):
        """A plan document naming a point nothing consults is refused:
        armed, it would silently never fire."""
        with pytest.raises(FaultPlanError, match="unknown fault point"):
            FaultSpec.from_dict({"point": point})
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"points": [{"point": point}]}))
        with pytest.raises(FaultPlanError, match="unknown fault point"):
            FaultPlan.load(path)


def test_every_point_constant_is_registered():
    """The registry is exactly the ``*_POINT`` constants the modules
    consult, so a new point cannot be left out of plan validation."""
    constants = {}
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.endswith("_POINT")
                and isinstance(node.value, ast.Constant)
            ):
                constants[f"{path.name}:{node.targets[0].id}"] = node.value.value
    assert len(constants) == 12
    assert sorted(constants.values()) == sorted(FAULT_POINTS)
    assert set(DEFAULT_POINTS) <= set(FAULT_POINTS)


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=4)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
#: A well-typed value per plan field ("bogus" is an unknown field).
_TYPED = {
    "point": st.sampled_from(FAULT_POINTS) | st.text(max_size=4),
    "probability": st.floats(min_value=0, max_value=1),
    "windows": st.lists(
        st.lists(st.integers(min_value=0, max_value=10), max_size=3),
        max_size=2,
    ),
    "max_fires": st.integers(min_value=-1, max_value=5),
    "latency_s": st.floats(min_value=0, max_value=5),
    "bogus": _JSON,
}


@st.composite
def plan_documents(draw):
    """JSON documents shaped roughly like fault plans: any value where a
    field goes, often a well-typed one, plus the odd unknown field or
    non-object at either level."""
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return draw(_JSON)
    specs = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            specs.append(draw(_JSON))
            continue
        names = draw(st.sets(st.sampled_from(sorted(_TYPED)), max_size=6))
        specs.append({name: draw(_TYPED[name] | _JSON) for name in names})
    return {"points": specs}


class TestFaultPlan:
    def test_of_and_mapping_surface(self):
        plan = FaultPlan.of(FaultSpec("a"), FaultSpec("b", probability=0.5))
        assert len(plan) == 2
        assert "a" in plan and "c" not in plan
        assert plan.get("b").probability == 0.5
        assert plan.points() == ["a", "b"]

    def test_duplicate_point_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.of(FaultSpec("a"), FaultSpec("a"))

    def test_uniform(self):
        plan = FaultPlan.uniform(["a", "b"], probability=0.1, latency_s=1.0)
        assert plan.get("a").probability == 0.1
        assert plan.get("b").latency_s == 1.0

    def test_json_file_round_trip(self, tmp_path):
        plan = FaultPlan.of(
            FaultSpec("workflow.stuck", probability=0.2, windows=((0, 10),)),
            FaultSpec("predictor.latency", max_fires=1, latency_s=2.0),
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.load(path) == plan

    def test_load_errors(self, tmp_path):
        with pytest.raises(FaultPlanError):
            FaultPlan.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(FaultPlanError):
            FaultPlan.load(bad)
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"points": {"a": 1}})

    @pytest.mark.parametrize(
        "field", [{"windows": 5}, {"probability": "a"}, {"max_fires": "3"}]
    )
    def test_mistyped_fields_rejected(self, field):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"points": [{"point": "sql.execute", **field}]})

    @hsettings(max_examples=100, deadline=None)
    @given(doc=plan_documents())
    def test_only_fault_plan_errors_escape(self, doc):
        try:
            plan = FaultPlan.from_dict(doc)
        except FaultPlanError:
            return
        assert FaultPlan.from_dict(plan.to_dict()) == plan


# ---------------------------------------------------------------------------
# Injector
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_deterministic_schedule(self):
        plan = FaultPlan.of(FaultSpec("p", probability=0.3))

        def schedule():
            injector = FaultInjector(plan, seed=7)
            return [injector.should_fire("p") for _ in range(50)]

        first = schedule()
        assert first == schedule()
        assert any(first) and not all(first)

    def test_different_seeds_differ(self):
        plan = FaultPlan.of(FaultSpec("p", probability=0.5))
        fires = []
        for seed in (0, 1):
            inj = FaultInjector(plan, seed=seed)
            fires.append([inj.should_fire("p") for _ in range(64)])
        assert fires[0] != fires[1]

    def test_absent_point_consumes_no_randomness(self):
        """Consulting points outside the plan must not perturb the
        schedule of points inside it."""
        plan = FaultPlan.of(FaultSpec("p", probability=0.3))
        lone = FaultInjector(plan, seed=3)
        noisy = FaultInjector(plan, seed=3)
        lone_fires = []
        noisy_fires = []
        for _ in range(100):
            lone_fires.append(lone.should_fire("p"))
            noisy.should_fire("other.point")
            noisy_fires.append(noisy.should_fire("p"))
        assert lone_fires == noisy_fires
        assert "other.point" not in noisy.consults

    def test_probability_extremes(self):
        plan = FaultPlan.of(FaultSpec("on"), FaultSpec("off", probability=0.0))
        inj = FaultInjector(plan)
        assert all(inj.should_fire("on") for _ in range(10))
        assert not any(inj.should_fire("off") for _ in range(10))
        assert inj.fires["on"] == 10
        assert inj.fires.get("off") is None
        assert inj.consults["off"] == 10

    def test_max_fires_cap(self):
        plan = FaultPlan.of(FaultSpec("p", max_fires=2))
        inj = FaultInjector(plan)
        assert [inj.should_fire("p") for _ in range(5)] == [
            True, True, False, False, False
        ]
        assert inj.total_fires() == 2
        assert inj.total_consults() == 5

    def test_windows_respected(self):
        plan = FaultPlan.of(FaultSpec("p", windows=((100, 200),)))
        inj = FaultInjector(plan)
        assert not inj.should_fire("p", now=50)
        assert inj.should_fire("p", now=150)
        assert not inj.should_fire("p", now=250)

    def test_latency_payload(self):
        plan = FaultPlan.of(FaultSpec("p", latency_s=0.5, max_fires=1))
        inj = FaultInjector(plan)
        assert inj.latency_s("p") == 0.5
        assert inj.latency_s("p") == 0.0  # cap reached
        assert inj.latency_s("unknown") == 0.0

    def test_note_and_snapshot(self):
        inj = FaultInjector(FaultPlan.of(FaultSpec("p", max_fires=1)))
        inj.should_fire("p")
        inj.note("retry.resume.scan")
        inj.note("retry.resume.scan", n=2)
        snap = inj.snapshot()
        assert snap["fires"] == {"p": 1}
        assert snap["consults"] == {"p": 1}
        assert snap["events"] == {"retry.resume.scan": 3}


# ---------------------------------------------------------------------------
# Resilience primitives
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    @staticmethod
    def _backoff(policy):
        """The delays ``call`` sleeps between the attempts of a call that
        always fails."""

        def always_down():
            raise StorageError("down")

        slept = []
        with pytest.raises(StorageError):
            policy.call(always_down, sleep=slept.append)
        return slept

    def test_delays_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=1.0, multiplier=2.0,
                             max_delay_s=5.0)
        assert self._backoff(policy) == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=10.0, jitter=0.2,
                             seed=5)
        delays = self._backoff(policy)
        assert delays == self._backoff(
            RetryPolicy(max_attempts=4, base_delay_s=10.0, jitter=0.2, seed=5)
        )
        nominal = [10.0, 20.0, 40.0]
        for got, base in zip(delays, nominal):
            bounded = min(base, 60.0)
            assert bounded * 0.8 <= got <= bounded * 1.2

    def test_jittered_schedule_is_fixed_at_construction(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=1.0, multiplier=2.0,
                             max_delay_s=6.0, jitter=0.5, seed=7)
        expected = [0.6528197213188431, 1.4647742553548126,
                    3.451495025326623, 4.4552807680792945]
        # Every call sleeps the same schedule.
        assert self._backoff(policy) == expected
        assert self._backoff(policy) == expected

    def test_call_retries_then_succeeds(self):
        attempts = []
        retries = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise StorageError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=3)
        result = policy.call(
            flaky, on_retry=lambda a, d, e: retries.append((a, d))
        )
        assert result == "ok"
        assert len(attempts) == 3
        assert [a for a, _ in retries] == [1, 2]

    def test_call_exhausts_and_reraises(self):
        def always_down():
            raise StorageError("down")

        slept = []
        with pytest.raises(StorageError):
            RetryPolicy(max_attempts=3).call(always_down, sleep=slept.append)
        assert len(slept) == 2  # no sleep after the final failure

    def test_non_retryable_error_propagates_immediately(self):
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=3).call(boom)
        assert len(calls) == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=2.0)


class TestDeadline:
    def test_expires_on_injected_clock(self):
        t = {"now": 0.0}
        deadline = Deadline(10.0, clock=lambda: t["now"])
        deadline.check()
        t["now"] = 10.0
        assert deadline.expired
        with pytest.raises(DeadlineExceededError):
            deadline.check("resume scan")


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, recovery_s=100)
        for t in range(2):
            breaker.record_failure(t)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(2)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1
        assert not breaker.allow(50)

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(0)
        breaker.record_success(1)
        breaker.record_failure(2)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_s=100)
        breaker.record_failure(0)
        assert not breaker.allow(99)
        assert breaker.allow(100)  # recovery window over: probe allowed
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(100)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_s=100)
        breaker.record_failure(0)
        assert breaker.allow(100)
        breaker.record_failure(100)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2
        assert not breaker.allow(150)

    def test_open_noted_in_fault_ledger(self):
        injector = arm(FaultPlan.empty())
        breaker = CircuitBreaker(failure_threshold=1, name="predictor")
        breaker.record_failure(0)
        assert injector.events == {"breaker.predictor.open": 1}


# ---------------------------------------------------------------------------
# Runtime switch
# ---------------------------------------------------------------------------


class TestRuntime:
    def test_disarmed_by_default(self):
        assert not FAULTS.enabled
        assert FAULTS.injector is None

    def test_arm_disarm(self):
        injector = arm(FaultPlan.of(FaultSpec("p")), seed=9)
        assert FAULTS.enabled
        assert FAULTS.injector is injector
        assert injector.seed == 9
        disarm()
        assert not FAULTS.enabled

    def test_chaos_context_restores_prior_state(self):
        outer = arm(FaultPlan.empty(), seed=1)
        with chaos(FaultPlan.of(FaultSpec("p"))) as inner:
            assert FAULTS.injector is inner
        assert FAULTS.enabled and FAULTS.injector is outer
        disarm()
        with chaos(FaultPlan.empty()):
            assert FAULTS.enabled
        assert not FAULTS.enabled


# ---------------------------------------------------------------------------
# Wired fault points
# ---------------------------------------------------------------------------


class TestInjectionSites:
    def test_sql_execute_fault(self):
        engine = SqlEngine(Database("db"))
        engine.execute("CREATE TABLE t (x INT PRIMARY KEY)")
        arm(FaultPlan.of(FaultSpec(EXECUTE_FAULT_POINT, max_fires=1)))
        with pytest.raises(SqlExecutionError, match="injected"):
            engine.execute("SELECT x FROM t")
        # Cap reached: the engine works again.
        assert engine.execute("SELECT x FROM t").rowcount == 0

    def test_cluster_node_crash_fails_over(self):
        cluster = Cluster(n_nodes=2, node_capacity=4, resume_latency_s=10,
                          resume_latency_jitter_s=0, move_latency_s=30)
        cluster.place("db-1")
        home = cluster.node_of("db-1").node_id
        arm(FaultPlan.of(FaultSpec("cluster.node.crash", max_fires=1)))
        outcome = cluster.allocate("db-1")
        assert outcome.moved
        assert outcome.node_id != home
        assert outcome.latency_s == 10 + 2 * 30
        assert cluster.moves == 1
        # Next allocation is fault-free and stays put.
        cluster.release("db-1")
        assert not cluster.allocate("db-1").moved

    def test_cluster_node_crash_recovers_in_place_when_full(self):
        cluster = Cluster(n_nodes=1, node_capacity=4, resume_latency_s=10,
                          resume_latency_jitter_s=0, move_latency_s=30)
        cluster.place("db-1")
        arm(FaultPlan.of(FaultSpec("cluster.node.crash", max_fires=1)))
        outcome = cluster.allocate("db-1")
        assert not outcome.moved
        assert outcome.latency_s == 10 + 2 * 30
        assert cluster.is_allocated("db-1")

    def test_workflow_crash_point_goes_terminal(self):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec(CRASH_POINT, max_fires=1))
        )
        engine = WorkflowEngine(injector=injector)
        crashed = engine.submit(WorkflowKind.REACTIVE_RESUME, "db-1", now=0)
        survivor = engine.submit(WorkflowKind.REACTIVE_RESUME, "db-2", now=0)
        engine.tick(0)
        assert crashed.state is WorkflowState.FAILED
        assert crashed.terminal
        assert survivor.state is WorkflowState.RUNNING
        completed = engine.tick(60)
        assert completed == [survivor]

    def test_workflow_stuck_via_injector_plan(self):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec(STUCK_POINT, max_fires=1))
        )
        engine = WorkflowEngine(injector=injector)
        first = engine.submit(WorkflowKind.PHYSICAL_PAUSE, "db-1", now=0)
        engine.tick(0)
        assert first.state is WorkflowState.STUCK
        assert engine.stuck_workflows(now=600, stuck_after_s=300) == [first]

    def _scan_operation(self):
        metadata = MetadataStore()
        metadata.register("db-1", created_at=0, node_id="node-000")
        # Predicted start inside the (now + k, now + k + period] scan
        # window of Algorithm 5 for now=0, k=600, period=60.
        metadata.record_physical_pause("db-1", pred_start=650)
        return ProactiveResumeOperation(
            metadata, prewarm_s=600, period_s=60,
            on_prewarm=lambda db_id, now: None,
        )

    def test_resume_scan_retries_through_transient_fault(self):
        operation = self._scan_operation()
        arm(FaultPlan.of(FaultSpec(SCAN_FAULT_POINT, max_fires=2)))
        record = operation.run_once(now=0)
        # Two injected failures, third attempt scans: pre-warm still found.
        assert record.scan_failures == 2
        assert record.batch_size == 1
        assert operation.scan_failures == 2
        assert operation.failed_iterations == 0
        assert FAULTS.injector.events["retry.resume.scan"] == 2

    def test_resume_scan_exhaustion_skips_iteration(self):
        operation = self._scan_operation()
        arm(FaultPlan.of(FaultSpec(SCAN_FAULT_POINT)))  # always down
        record = operation.run_once(now=0)
        assert record.batch_size == 0
        assert record.scan_failures == 3
        assert operation.failed_iterations == 1

    def test_predictor_faults_trip_breaker_and_attribute_logins(self):
        traces = region_fleet(RegionPreset.EU1, TEST_SCALE)
        plan = FaultPlan.of(FaultSpec(PREDICTOR_FAULT_POINT))  # always fail
        with chaos(plan, seed=TEST_SCALE.seed) as injector:
            result = simulate_region(
                traces, PolicyKind.PROACTIVE, DEFAULT_CONFIG,
                TEST_SCALE.settings(),
            )
            kpis = result.kpis()
        assert injector.events.get("breaker.predictor.open", 0) >= 1
        # With the predictor permanently down the fleet is reactive-only:
        # no pre-warms, and fault attribution covers the reactive logins
        # taken while degraded.
        assert kpis.workflows.proactive_resumes == 0
        assert kpis.logins.reactive_faulted > 0
        assert kpis.logins.reactive_faulted <= kpis.logins.reactive
        assert 0 < kpis.logins.reactive_faulted <= kpis.logins.total


# ---------------------------------------------------------------------------
# Chaos experiment determinism
# ---------------------------------------------------------------------------


class TestChaosDeterminism:
    def test_armed_empty_plan_is_byte_identical_to_disarmed(self):
        traces = region_fleet(RegionPreset.EU1, TEST_SCALE)
        baseline = simulate_region(
            traces, PolicyKind.PROACTIVE, DEFAULT_CONFIG, TEST_SCALE.settings()
        ).kpis()
        with chaos(FaultPlan.empty(), seed=TEST_SCALE.seed) as injector:
            armed = simulate_region(
                traces, PolicyKind.PROACTIVE, DEFAULT_CONFIG,
                TEST_SCALE.settings(),
            ).kpis()
        assert armed.to_dict() == baseline.to_dict()
        assert injector.total_fires() == 0

    def test_zero_rate_row_matches_baseline(self):
        traces = region_fleet(RegionPreset.EU1, TEST_SCALE)
        baseline = simulate_region(
            traces, PolicyKind.PROACTIVE, DEFAULT_CONFIG, TEST_SCALE.settings()
        ).kpis()
        row = run_chaos(scale=TEST_SCALE, fault_rates=(0.0,)).rows()[0]
        assert row["qos_percent"] == round(baseline.qos_percent, 3)
        assert row["idle_percent"] == round(baseline.idle_percent, 3)
        assert row["fault_fires"] == 0

    def test_serial_and_multiprocess_rows_identical(self):
        kwargs = dict(scale=TEST_SCALE, fault_rates=(0.0, 0.2))
        serial = run_chaos(executor=SerialExecutor(), **kwargs).rows()
        parallel = run_chaos(
            executor=MultiprocessExecutor(workers=2), **kwargs
        ).rows()
        assert serial == parallel

    def test_qos_degrades_with_fault_rate(self):
        result = run_chaos(scale=TEST_SCALE, fault_rates=(0.0, 0.3))
        rows = result.rows()
        assert rows[0]["qos_percent"] > rows[1]["qos_percent"]
        assert rows[1]["fault_fires"] > 0
        assert result.qos_monotonic()
        assert "QoS" in result.table()

    def test_explicit_plan_single_run(self):
        plan = FaultPlan.uniform(DEFAULT_POINTS, probability=0.1)
        rows = run_chaos(scale=TEST_SCALE, plan=plan).rows()
        assert len(rows) == 1
        assert rows[0]["fault_rate"] == "plan"
        assert rows[0]["fault_fires"] > 0
