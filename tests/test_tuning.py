"""Equivalence + durability suite for the online tuning subsystem.

Three contracts pin ``repro/tuning/`` to the rest of the codebase:

* **Byte identity** -- a predictor bank restricted to ``("sliding",)``
  is a pure delegate of the engine's existing cache + FastPredictor
  path: KPIs, workflow event times, pre-warm batches, hot-path counters,
  and (under chaos) the fault-injector consultation ledger are
  bit-for-bit those of a bank-less run, on both the per-actor and the
  columnar lean engines.  Likewise a tuner run with zero challengers and
  no bank reproduces the static baseline series exactly.
* **Durability** -- tuner decisions are journaled before they apply, so
  a crash (clean, torn-write, or corrupt-tail) at any journal append
  recovers to a tuner whose post-recovery decisions are identical to the
  uninterrupted twin's.
* **Drift generators are pure and picklable** -- ``DriftSpec`` rides the
  multiprocess fleet path, so ``materialize`` must be a deterministic
  pure function of ``(spec, lo, hi)``.

Harness style mirrors ``tests/test_prediction_cache.py``.
"""

import dataclasses
import pickle
import random

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG, ProRPConfig
from repro.controlplane.durability.wal import (
    CRASH_FAULT_POINT,
    TORN_FAULT_POINT,
)
from repro.core.prediction_cache import HOT_PATH
from repro.core.resume_service import SCAN_FAULT_POINT
from repro.errors import ConfigError, ControlPlaneCrashError, TuningError
from repro.faults import FaultPlan, FaultSpec, chaos
from repro.simulation.actor import PREDICTOR_FAULT_POINT
from repro.simulation.fleet import simulate_fleet
from repro.simulation.region import SimulationSettings, simulate_region
from repro.tuning import (
    BANK_POLICIES,
    OnlineKnobTuner,
    PredictorBank,
    TunerSettings,
    candidate_population,
    default_candidates,
    hybrid_histogram_predict,
    register_tuning_metrics,
    validate_knob_candidates,
)
from repro.tuning.bank import PREMATURE_WEIGHT
from repro.tuning.driver import run_online_tuning
from repro.types import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    ActivityTrace,
    PredictedActivity,
    Session,
)
from repro.workload.fleetgen import DRIFT_KINDS, DriftSpec, FleetShardSpec

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR
SPAN_DAYS = 32

EVAL_KWARGS = dict(eval_start=30 * DAY, eval_end=31 * DAY, warmup_s=DAY)

CONFIG_VARIANTS = {
    "daily": DEFAULT_CONFIG,
    "adaptive": DEFAULT_CONFIG.with_overrides(auto_seasonality=True),
    "tight": ProRPConfig(
        logical_pause_s=3 * HOUR,
        window_s=2 * HOUR,
        slide_s=15 * 60,
        confidence=0.3,
    ),
}

CHAOS_PLAN = FaultPlan.of(
    FaultSpec(PREDICTOR_FAULT_POINT, probability=0.25),
    FaultSpec(SCAN_FAULT_POINT, probability=0.1),
)

#: Seeded end-to-end identity scenarios (3 fleets x 3 variants + chaos).
SCENARIOS = [
    pytest.param(seed, variant, plan, id=f"seed{seed}-{variant}{'-chaos' if plan else ''}")
    for seed in range(3)
    for variant, plan in [
        ("daily", None),
        ("adaptive", None),
        ("tight", None),
        ("daily", CHAOS_PLAN),
    ]
]

ALL_POLICIES = ("sliding", "hybrid_histogram")


def make_fleet(seed: int, n: int = 6):
    """A small deterministic fleet with arbitrary session structures."""
    rng = random.Random(seed)
    traces = []
    for i in range(n):
        sessions = []
        cursor = rng.randint(0, 3 * DAY)
        while cursor < SPAN_DAYS * DAY - HOUR:
            duration = rng.randint(60, 12 * HOUR)
            end = min(cursor + duration, SPAN_DAYS * DAY)
            sessions.append(Session(cursor, end))
            cursor = end + rng.randint(60, 2 * DAY)
        created = rng.choice([0, sessions[0].start if sessions else 0])
        traces.append(ActivityTrace(f"db-{seed}-{i}", sessions, created_at=created))
    return traces


def daily_logins(n: int = 10, hour: int = 9) -> np.ndarray:
    return np.array([hour * HOUR + d * DAY for d in range(n)], dtype=np.int64)


# ----------------------------------------------------------------------
# Byte identity: sliding-only bank == no bank
# ----------------------------------------------------------------------


def _workflow_times(result):
    return [
        (
            outcome.database_id,
            outcome.physical_pause_times,
            outcome.logical_pause_times,
            outcome.proactive_resume_times,
            outcome.reactive_resume_times,
        )
        for outcome in result.outcomes
    ]


def _run_region(traces, config, bank, plan, chaos_seed=1234):
    settings = SimulationSettings(predictor_bank=bank, **EVAL_KWARGS)
    HOT_PATH.reset()
    if plan is None:
        result = simulate_region(traces, "proactive", config, settings)
        return result, HOT_PATH.snapshot(), None
    with chaos(plan, seed=chaos_seed) as injector:
        result = simulate_region(traces, "proactive", config, settings)
        ledger = (injector.total_consults(), dict(injector.consults),
                  injector.total_fires())
    return result, HOT_PATH.snapshot(), ledger


class TestSlidingBankByteIdentity:
    @pytest.mark.parametrize("seed, variant, plan", SCENARIOS)
    def test_region_engine(self, seed, variant, plan):
        traces = make_fleet(seed)
        config = CONFIG_VARIANTS[variant]
        off, off_hot, off_ledger = _run_region(traces, config, (), plan)
        on, on_hot, on_ledger = _run_region(traces, config, ("sliding",), plan)
        assert dataclasses.asdict(on.kpis()) == dataclasses.asdict(off.kpis())
        assert on.prewarm_batch_sizes() == off.prewarm_batch_sizes()
        assert _workflow_times(on) == _workflow_times(off)
        # Zero shadow work: the hot-path counters (cache hits/misses,
        # batch evals, full scans) must be bit-identical too.
        assert on_hot == off_hot
        assert on_ledger == off_ledger

    @pytest.mark.parametrize("seed", range(3))
    def test_columnar_fleet_engine(self, seed):
        spec = FleetShardSpec(n_databases=16, span_days=8, seed=seed)
        kwargs = dict(eval_start=6 * DAY, eval_end=7 * DAY, warmup_s=DAY)
        HOT_PATH.reset()
        off = simulate_fleet(
            spec, "proactive", settings=SimulationSettings(**kwargs)
        )
        off_hot = HOT_PATH.snapshot()
        HOT_PATH.reset()
        on = simulate_fleet(
            spec,
            "proactive",
            settings=SimulationSettings(predictor_bank=("sliding",), **kwargs),
        )
        assert dataclasses.asdict(on.kpis) == dataclasses.asdict(off.kpis)
        assert HOT_PATH.snapshot() == off_hot

    def test_full_bank_runs_and_observes(self):
        """The full bank completes end-to-end on both engines and
        produces a well-formed KPI report (it may legitimately differ)."""
        spec = FleetShardSpec(n_databases=12, span_days=8, seed=3)
        settings = SimulationSettings(
            eval_start=6 * DAY,
            eval_end=7 * DAY,
            warmup_s=3 * DAY,
            predictor_bank=ALL_POLICIES,
        )
        result = simulate_fleet(spec, "proactive", settings=settings)
        assert 0.0 <= result.kpis.qos_percent <= 100.0
        traces = make_fleet(4)
        region = simulate_region(
            traces,
            "proactive",
            DEFAULT_CONFIG,
            SimulationSettings(predictor_bank=ALL_POLICIES, **EVAL_KWARGS),
        )
        assert 0.0 <= region.kpis().qos_percent <= 100.0

    def test_reactive_policy_ignores_bank(self):
        """The bank only exists on the proactive policy."""
        traces = make_fleet(0)
        settings = SimulationSettings(
            predictor_bank=ALL_POLICIES, **EVAL_KWARGS
        )
        off = simulate_region(
            traces, "reactive", DEFAULT_CONFIG,
            SimulationSettings(**EVAL_KWARGS),
        )
        on = simulate_region(traces, "reactive", DEFAULT_CONFIG, settings)
        assert dataclasses.asdict(on.kpis()) == dataclasses.asdict(off.kpis())

    def test_unknown_bank_policy_rejected_at_settings(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="unknown"):
            SimulationSettings(predictor_bank=("slidign",), **EVAL_KWARGS)


# ----------------------------------------------------------------------
# PredictorBank unit behaviour
# ----------------------------------------------------------------------


class TestPredictorBank:
    def test_sliding_only_is_pure_delegate(self):
        bank = PredictorBank(("sliding",), DEFAULT_CONFIG)
        marker = PredictedActivity(5, 10, 0.5)
        calls = []

        def sliding_fn():
            calls.append(1)
            return marker

        out = bank.predict("db", 100, lambda: daily_logins(), sliding_fn)
        assert out is marker and calls == [1]
        # No shadow state, and login feedback is a no-op.
        assert bank._dbs == {}
        bank.observe_login("db", 200)
        assert bank._dbs == {} and bank.switches == 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown predictor policy"):
            PredictorBank(("sliding", "nope"), DEFAULT_CONFIG)
        with pytest.raises(ConfigError):
            PredictorBank((), DEFAULT_CONFIG)

    def test_hybrid_histogram_regular_gaps(self):
        logins = daily_logins(10)
        now = int(logins[-1]) + HOUR
        p = hybrid_histogram_predict(logins, now, DEFAULT_CONFIG)
        assert p is not None
        assert p.start == int(logins[-1]) + DAY
        assert p.confidence == 1.0

    def test_hybrid_histogram_unrepresentative(self):
        # Too few samples.
        assert hybrid_histogram_predict(
            daily_logins(3), 3 * DAY, DEFAULT_CONFIG
        ) is None
        # Wildly irregular gaps (high coefficient of variation): six
        # one-minute gaps then a single month-long one.
        logins = np.array(
            [0, 60, 120, 180, 240, 300, 360, 30 * DAY], dtype=np.int64
        )
        assert hybrid_histogram_predict(
            logins, 30 * DAY + HOUR, DEFAULT_CONFIG
        ) is None
        # Stale: the expected gap elapsed long ago.
        assert hybrid_histogram_predict(
            daily_logins(10), int(daily_logins(10)[-1]) + 5 * DAY, DEFAULT_CONFIG
        ) is None

    def test_switches_to_better_policy_with_hysteresis(self):
        bank = PredictorBank(("sliding", "hybrid_histogram"), DEFAULT_CONFIG)
        key = "db"
        empty = PredictedActivity.none()
        n = 10
        for round_no in range(3):
            logins = daily_logins(n + round_no)
            now = int(logins[-1]) + HOUR
            # The engine's sliding path keeps missing; the histogram nails it.
            bank.predict(key, now, lambda l=logins: l, lambda: empty)
            if round_no < 2:
                assert bank.selected_policy(key) == "sliding"
            bank.observe_login(key, int(logins[-1]) + DAY)
        assert bank.selected_policy(key) == "hybrid_histogram"
        assert bank.switches == 1
        assert bank.selection_counts()["hybrid_histogram"] == 1

    def test_regret_costs(self):
        bank = PredictorBank(ALL_POLICIES, DEFAULT_CONFIG)
        t = 1000
        # Empty / late predictions cost the full miss.
        assert bank._cost(0, PredictedActivity.none(), t) == 1.0
        assert bank._cost(0, PredictedActivity(t + 1, t + 2, 0.9), t) == 1.0
        # A prediction that covered the login costs the (weighted,
        # capped) premature-resume fraction.
        horizon = DEFAULT_CONFIG.logical_pause_s
        exact = bank._cost(0, PredictedActivity(t, t + 1, 0.9), t)
        assert exact == 0.0
        early = bank._cost(
            0, PredictedActivity(t - horizon // 2, t + 1, 0.9), t
        )
        assert 0.0 < early <= PREMATURE_WEIGHT


# ----------------------------------------------------------------------
# Candidate validation (shared with the offline sweep)
# ----------------------------------------------------------------------


class TestCandidates:
    def test_unknown_knob(self):
        with pytest.raises(ConfigError, match="unknown knob"):
            validate_knob_candidates(DEFAULT_CONFIG, {"confidnce": [0.1]})

    def test_empty_values(self):
        with pytest.raises(ConfigError, match="no candidate values"):
            validate_knob_candidates(DEFAULT_CONFIG, {"confidence": []})

    def test_invalid_value_is_typed_config_error(self):
        with pytest.raises(ConfigError, match="invalid candidate"):
            validate_knob_candidates(DEFAULT_CONFIG, {"confidence": [0.1, -1.0]})

    def test_population_dedups_and_orders(self):
        base = DEFAULT_CONFIG
        population = candidate_population(
            base,
            {
                "confidence": [base.confidence, 0.3, 0.3, 0.5],
                "window_s": [base.window_s],
            },
        )
        assert [c.confidence for c in population] == [0.3, 0.5]
        assert all(c != base for c in population)

    def test_default_candidates_are_valid_challengers(self):
        spread = default_candidates(DEFAULT_CONFIG)
        population = candidate_population(DEFAULT_CONFIG, spread)
        assert len(population) == 6
        assert len(set(population)) == len(population)


# ----------------------------------------------------------------------
# OnlineKnobTuner decision mechanics
# ----------------------------------------------------------------------


def _challengers(n: int):
    return tuple(
        DEFAULT_CONFIG.with_overrides(confidence=0.2 + 0.1 * i)
        for i in range(n)
    )


class TestTunerDecisions:
    def test_single_candidate_never_moves(self):
        tuner = OnlineKnobTuner(DEFAULT_CONFIG)
        for w in range(4):
            decision = tuner.record_window({0: 50.0 + w})
            assert decision.active == 0
            assert decision.alive == (0,)
            assert decision.promoted is None and not decision.demoted

    def test_promotion_needs_consecutive_wins(self):
        tuner = OnlineKnobTuner(
            DEFAULT_CONFIG,
            _challengers(1),
            settings=TunerSettings(promote_after=2, halve_every=100),
        )
        assert tuner.record_window({0: 50.0, 1: 55.0}).promoted is None
        # A losing window resets the streak.
        assert tuner.record_window({0: 50.0, 1: 49.0}).promoted is None
        assert tuner.record_window({0: 50.0, 1: 55.0}).promoted is None
        decision = tuner.record_window({0: 50.0, 1: 55.0})
        assert decision.promoted == 1 and decision.active == 1

    def test_demotion_guard_is_immediate(self):
        tuner = OnlineKnobTuner(
            DEFAULT_CONFIG,
            _challengers(1),
            settings=TunerSettings(promote_after=1, halve_every=100),
        )
        tuner.record_window({0: 50.0, 1: 60.0})
        assert tuner.active_index == 1
        decision = tuner.record_window({0: 50.0, 1: 49.9})
        assert decision.demoted and decision.active == 0

    def test_halving_never_prunes_baseline_or_active(self):
        tuner = OnlineKnobTuner(
            DEFAULT_CONFIG,
            _challengers(4),
            settings=TunerSettings(
                promote_after=1, promote_margin=0.1, halve_every=1,
                min_challengers=1,
            ),
        )
        decision = tuner.record_window(
            {0: 50.0, 1: 40.0, 2: 60.0, 3: 30.0, 4: 45.0}
        )
        assert decision.active == 2  # promoted in the same window
        assert 0 in decision.alive and 2 in decision.alive
        assert all(i not in decision.pruned for i in (0, 2))
        assert len(decision.pruned) >= 1

    def test_missing_alive_score_raises(self):
        tuner = OnlineKnobTuner(DEFAULT_CONFIG, _challengers(2))
        with pytest.raises(TuningError, match="missing scores"):
            tuner.record_window({0: 50.0, 1: 55.0})
        with pytest.raises(TuningError, match="non-alive"):
            tuner.record_window({0: 50.0, 1: 55.0, 2: 52.0, 9: 1.0})


# ----------------------------------------------------------------------
# Durability: crash at the journal == uninterrupted twin
# ----------------------------------------------------------------------


SCORE_SCRIPT = [
    {0: 50.0, 1: 52.0, 2: 48.0},
    {0: 50.0, 1: 53.0, 2: 47.0},
    {0: 50.0, 1: 54.0},
    {0: 50.0, 1: 49.0},
]


def _drive(tuner, script):
    decisions = []
    for w, scores in enumerate(script):
        alive = set(tuner.alive_indices)
        decisions.append(
            tuner.record_window(
                {i: s for i, s in scores.items() if i in alive}, now=w * DAY
            )
        )
    return decisions


class TestTunerDurability:
    def _twin(self):
        tuner = OnlineKnobTuner(
            DEFAULT_CONFIG, _challengers(2),
            settings=TunerSettings(promote_after=2),
        )
        return tuner, _drive(tuner, SCORE_SCRIPT)

    def test_recover_from_journal_only(self, tmp_path):
        durable = OnlineKnobTuner(
            DEFAULT_CONFIG, _challengers(2), state_dir=tmp_path,
            settings=TunerSettings(promote_after=2),
        )
        _drive(durable, SCORE_SCRIPT[:2])
        durable.close()  # crash without ever checkpointing

        recovered = OnlineKnobTuner.recover(
            DEFAULT_CONFIG, _challengers(2), tmp_path,
            settings=TunerSettings(promote_after=2),
        )
        _, twin_decisions = self._twin()
        assert recovered.expected_window == 2
        assert recovered.decisions == twin_decisions[:2]
        assert _drive(recovered, SCORE_SCRIPT[2:]) == twin_decisions[2:]

    def test_recover_from_checkpoint_plus_tail(self, tmp_path):
        durable = OnlineKnobTuner(
            DEFAULT_CONFIG, _challengers(2), state_dir=tmp_path,
            settings=TunerSettings(promote_after=2),
        )
        _drive(durable, SCORE_SCRIPT[:2])
        durable.checkpoint()
        _drive(durable, SCORE_SCRIPT[2:3])  # journaled past the checkpoint
        durable.close()

        recovered = OnlineKnobTuner.recover(
            DEFAULT_CONFIG, _challengers(2), tmp_path,
            settings=TunerSettings(promote_after=2),
        )
        _, twin_decisions = self._twin()
        partial_twin = OnlineKnobTuner(
            DEFAULT_CONFIG, _challengers(2),
            settings=TunerSettings(promote_after=2),
        )
        _drive(partial_twin, SCORE_SCRIPT[:3])
        assert recovered.expected_window == 3
        assert recovered._state.to_dict() == partial_twin._state.to_dict()
        assert _drive(recovered, SCORE_SCRIPT[3:]) == twin_decisions[3:]

    @pytest.mark.parametrize("point", [CRASH_FAULT_POINT, TORN_FAULT_POINT])
    def test_injected_crash_then_identical_decisions(self, tmp_path, point):
        durable = OnlineKnobTuner(
            DEFAULT_CONFIG, _challengers(2), state_dir=tmp_path,
            settings=TunerSettings(promote_after=2),
        )
        _drive(durable, SCORE_SCRIPT[:2])
        with chaos(FaultPlan.of(FaultSpec(point, probability=1.0)), seed=7):
            with pytest.raises(ControlPlaneCrashError):
                durable.record_window(SCORE_SCRIPT[2], now=2 * DAY)
        # The crash interrupted window 2 before it applied.
        assert durable.expected_window == 2
        durable.close()

        recovered = OnlineKnobTuner.recover(
            DEFAULT_CONFIG, _challengers(2), tmp_path,
            settings=TunerSettings(promote_after=2),
        )
        _, twin_decisions = self._twin()
        assert recovered.expected_window == 2
        # Re-submitting the interrupted window produces the exact
        # decision the uninterrupted twin made.
        assert _drive(recovered, SCORE_SCRIPT[2:]) == twin_decisions[2:]

    def test_journal_gap_raises(self, tmp_path):
        durable = OnlineKnobTuner(
            DEFAULT_CONFIG, _challengers(1), state_dir=tmp_path
        )
        durable.record_window({0: 50.0, 1: 51.0}, now=0)
        durable._wal.append(
            {"type": "tuning.window", "window": 5, "scores": {"0": 1.0, "1": 1.0}},
            now=DAY,
        )
        durable.close()
        with pytest.raises(TuningError, match="journal gap"):
            OnlineKnobTuner.recover(DEFAULT_CONFIG, _challengers(1), tmp_path)


# ----------------------------------------------------------------------
# Driver: the no-op configuration reproduces the static series exactly
# ----------------------------------------------------------------------


class TestDriver:
    SPEC = FleetShardSpec(n_databases=10, span_days=8, seed=5)
    SETTINGS_KWARGS = dict(warmup_s=DAY)

    def _settings(self):
        return SimulationSettings(
            eval_start=5 * DAY, eval_end=6 * DAY, **self.SETTINGS_KWARGS
        )

    def test_no_challengers_no_bank_equals_static(self):
        report = run_online_tuning(
            self.SPEC,
            DEFAULT_CONFIG,
            challengers=(),
            n_windows=2,
            settings=self._settings(),
        )
        assert report.online_kpis.to_dict() == report.static_kpis.to_dict()
        assert report.online_score == report.static_score
        assert report.promotions == 0 and report.demotions == 0
        assert report.dominates_static
        # And the static series is the plain per-window evaluation: the
        # baseline (candidate 0) scores exactly the static score, which
        # is the default objective on a direct simulate_fleet run.
        from repro.training.objective import qos_priority_objective

        objective = qos_priority_objective()
        for outcome in report.windows:
            assert outcome.scores == ((0, outcome.static_score),)
            assert outcome.online_score == outcome.static_score
            direct = simulate_fleet(
                self.SPEC,
                "proactive",
                config=DEFAULT_CONFIG,
                settings=SimulationSettings(
                    eval_start=outcome.eval_start,
                    eval_end=outcome.eval_end,
                    **self.SETTINGS_KWARGS,
                ),
            )
            assert outcome.static_score == objective(direct.kpis)

    def test_driver_resume_matches_uninterrupted(self, tmp_path):
        challengers = _challengers(2)
        kwargs = dict(
            n_windows=3,
            settings=self._settings(),
        )
        full = run_online_tuning(
            self.SPEC, DEFAULT_CONFIG, challengers,
            state_dir=tmp_path / "full", **kwargs,
        )
        # Crash after one window: journal holds window 0 only.
        partial_dir = tmp_path / "partial"
        partial = run_online_tuning(
            self.SPEC, DEFAULT_CONFIG, challengers,
            n_windows=1, settings=self._settings(),
            state_dir=partial_dir,
        )
        assert partial.decisions == full.decisions[:1]
        recovered = OnlineKnobTuner.recover(
            DEFAULT_CONFIG, challengers, partial_dir
        )
        resumed = run_online_tuning(
            self.SPEC, DEFAULT_CONFIG, challengers,
            tuner=recovered, state_dir=partial_dir, **kwargs,
        )
        assert resumed.decisions == full.decisions[1:]
        assert [w.scores for w in resumed.windows] == [
            w.scores for w in full.windows[1:]
        ]

    def test_rejects_mismatched_resume(self):
        tuner = OnlineKnobTuner(DEFAULT_CONFIG, _challengers(1))
        with pytest.raises(TuningError, match="candidate population"):
            run_online_tuning(
                self.SPEC, DEFAULT_CONFIG, _challengers(2),
                n_windows=2, settings=self._settings(), tuner=tuner,
            )

    def test_rejects_bad_window_counts(self):
        with pytest.raises(TuningError):
            run_online_tuning(self.SPEC, n_windows=0)
        tuner = OnlineKnobTuner(DEFAULT_CONFIG)
        tuner.record_window({0: 1.0})
        with pytest.raises(TuningError, match="nothing to do"):
            run_online_tuning(
                self.SPEC, DEFAULT_CONFIG, n_windows=1,
                settings=self._settings(), tuner=tuner,
            )


# ----------------------------------------------------------------------
# Drift generators: pure, picklable, validated
# ----------------------------------------------------------------------


def _specs():
    base = FleetShardSpec(n_databases=12, span_days=8, seed=2)
    return [
        DriftSpec(base, kind="archetype_switch", at_day=4),
        DriftSpec(base, kind="dst_shift", at_day=4, shift_minutes=60),
        DriftSpec(base, kind="migration", at_day=4, shift_minutes=180,
                  fraction=0.5),
    ]


class TestDriftGenerators:
    @pytest.mark.parametrize(
        "spec", _specs(), ids=[s.kind for s in _specs()]
    )
    def test_pure_and_picklable(self, spec):
        assert pickle.loads(pickle.dumps(spec)) == spec
        a, b = spec.materialize(), spec.materialize()
        assert np.array_equal(a.starts, b.starts)
        assert np.array_equal(a.ends, b.ends)
        full = spec.materialize()
        part = spec.materialize(0, 6)
        assert part.n == 6
        # Sessions stay valid traces end-to-end.
        traces = full.to_traces()
        assert len(traces) == spec.n_databases
        for trace in traces:
            starts = [s.start for s in trace.sessions]
            assert starts == sorted(starts)
            assert all(s.end > s.start for s in trace.sessions)

    def test_drift_changes_post_drift_sessions_only(self):
        base = FleetShardSpec(n_databases=12, span_days=8, seed=2)
        t = 4 * DAY
        plain = base.materialize()
        shifted = DriftSpec(
            base, kind="dst_shift", at_day=4, shift_minutes=60
        ).materialize()
        pre_plain = plain.starts[plain.starts < t]
        pre_shifted = shifted.starts[shifted.starts < t]
        assert np.array_equal(np.sort(pre_plain), np.sort(pre_shifted))
        post_plain = np.sort(plain.starts[plain.starts >= t])
        post_shifted = np.sort(shifted.starts[shifted.starts >= t])
        # Every post-drift session moved by exactly the shift (modulo
        # boundary repairs, the bulk moved).
        moved = np.isin(post_plain + 3600, post_shifted)
        assert moved.mean() > 0.9

    def test_validation(self):
        from repro.errors import TraceError

        base = FleetShardSpec(n_databases=4, span_days=8, seed=0)
        with pytest.raises(TraceError):
            DriftSpec(base, kind="nope", at_day=4)
        with pytest.raises(TraceError):
            DriftSpec(base, kind="dst_shift", at_day=0)
        with pytest.raises(TraceError):
            DriftSpec(base, kind="dst_shift", at_day=9)
        with pytest.raises(TraceError):
            DriftSpec(base, kind="dst_shift", at_day=4, shift_minutes=0)
        with pytest.raises(TraceError):
            DriftSpec(base, kind="migration", at_day=4, fraction=0.0)
        assert DRIFT_KINDS == ("archetype_switch", "dst_shift", "migration")

    def test_drift_shards_deterministically(self):
        """Drifted shards regenerate identically in pooled workers (the
        spec rides the multiprocess path like a plain FleetShardSpec)."""
        from repro.parallel import SerialExecutor
        from repro.simulation.fleet import simulate_fleet_sharded

        spec = _specs()[0]
        settings = SimulationSettings(eval_start=6 * DAY, eval_end=7 * DAY)
        serial = simulate_fleet_sharded(
            spec, "proactive", settings=settings,
            n_shards=3, executor=SerialExecutor(),
        )
        pooled = simulate_fleet_sharded(
            spec, "proactive", settings=settings, n_shards=3, workers=3
        )
        assert dataclasses.asdict(serial.kpis) == dataclasses.asdict(pooled.kpis)


# ----------------------------------------------------------------------
# Metrics + SLO namespace
# ----------------------------------------------------------------------


class TestTuningObservability:
    def test_registration_is_idempotent_and_rendered(self):
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.openmetrics import render_openmetrics

        registry = MetricsRegistry()
        register_tuning_metrics(registry, window_s=900)
        register_tuning_metrics(registry, window_s=900)
        body = render_openmetrics(registry)
        for needle in (
            "tuning_promotions",
            "tuning_demotions",
            "tuning_bank_regret",
        ):
            assert needle in body
        assert "tuning_bank_share" not in body  # registered, never set: gone

    def test_bank_policies_constant(self):
        assert BANK_POLICIES == ("sliding", "hybrid_histogram")
