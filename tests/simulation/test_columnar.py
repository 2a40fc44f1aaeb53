"""Columnar-engine equivalence properties.

The struct-of-arrays engine (:mod:`repro.simulation.columnar`) and the
lean fleet path (:mod:`repro.simulation.fleet`) both claim byte-identical
observables to the per-actor reference.  These tests pin that claim over
seeded multi-region scenarios:

* actor vs columnar with the full stores: same KPI report, same
  per-database outcome ledgers, same resume-operation iterations, same
  history contents -- including under an armed fault plan (same injector
  consult/fire ledger) and a control-plane outage window.  Only the
  columnar engine batches (the settle phase and speculation over the
  next hour), so the hot-path counters are tied by an invariant instead
  of equality: every prediction the actors scanned, the columnar engine
  answered exactly once, from a parked answer or by opening a batch;
* lean fleet backends vs the full stores: same KPI report for both
  policies;
* serial vs worker-pool sharding: identical merged and per-shard KPIs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.fast_predictor import FastPredictor
from repro.core.prediction_cache import HOT_PATH
from repro.core.seasonality import Seasonality, detect_seasonality
from repro.errors import SimulationError, TraceError
from repro.faults import FaultPlan, FaultSpec, chaos
from repro.parallel import SerialExecutor
from repro.simulation.actor import _BaseActor
from repro.simulation.columnar import (
    NONE_TS,
    ORIGIN_MAINTENANCE,
    ORIGIN_NONE,
    ORIGIN_PREWARM,
    PH_LOGICAL,
    PH_PHYSICAL,
    PH_RESUMED,
    PH_RESUMING,
    SPECULATION_S,
    ColumnarRegionEngine,
    ColumnarState,
)
from repro.simulation.fleet import (
    merge_kpi_reports,
    shard_bounds,
    simulate_fleet,
    simulate_fleet_sharded,
)
from repro.simulation.region import (
    SimulationSettings,
    sessions_to_csr,
    simulate_region,
)
from repro.storage.history import HistoryStore
from repro.types import SECONDS_PER_DAY as DAY
from repro.types import ActivityTrace, EventType, PredictedActivity, Session
from repro.workload.fleetgen import FleetShardSpec, FleetSlice
from repro.workload.regions import RegionPreset, generate_region_traces

CONFIG = dataclasses.replace(DEFAULT_CONFIG, history_days=2)

ARMED_PLAN = FaultPlan.of(
    FaultSpec("predictor.exception", probability=0.25),
    FaultSpec("resume.scan.unavailable", probability=0.10),
    FaultSpec("cluster.node.crash", probability=0.02),
)


def _region_traces(seed, n=40, span_days=9):
    return generate_region_traces(
        RegionPreset.EU1, n, span_days=span_days, seed=seed
    )


def _region_settings(span_days=9, **overrides):
    return SimulationSettings(
        eval_start=(span_days - 1) * DAY, eval_end=span_days * DAY, **overrides
    )


def _run_both_engines(traces, policy, config, settings):
    results = {}
    snapshots = {}
    for engine in ("actor", "columnar"):
        HOT_PATH.reset()
        results[engine] = simulate_region(
            traces, policy, config, dataclasses.replace(settings, engine=engine)
        )
        snapshots[engine] = HOT_PATH.snapshot()
    return results, snapshots


def _assert_hot_path_invariant(snapshots):
    """Perf counters are not part of byte-identity (ROADMAP rule 3): the
    actors never batch; the columnar engine answers every refresh they
    scanned exactly once, either from a parked answer or by opening a
    batch.  On the reference predictor nothing is parked or batched, and
    both engines scan once per refresh."""
    actor, columnar = snapshots["actor"], snapshots["columnar"]
    answered = columnar["cache_hits"] + columnar["cache_misses"]
    if answered == 0 and columnar["batch_evals"] == 0:
        assert columnar["full_scans"] == actor["full_scans"]
    else:
        assert actor["full_scans"] == answered
    assert columnar["cache_hits"] <= columnar["batch_databases"]
    assert actor["batch_evals"] == 0


def _assert_ledgers_identical(results, snapshots):
    actor, columnar = results["actor"], results["columnar"]
    assert columnar.kpis().to_dict() == actor.kpis().to_dict()
    _assert_hot_path_invariant(snapshots)
    assert columnar.cluster_moves == actor.cluster_moves
    for mine, theirs in zip(columnar.outcomes, actor.outcomes):
        assert vars(mine) == vars(theirs)
    assert [
        (it.time, it.scan_failures, tuple(it.database_ids))
        for it in columnar.resume_iterations
    ] == [
        (it.time, it.scan_failures, tuple(it.database_ids))
        for it in actor.resume_iterations
    ]
    assert set(columnar.histories) == set(actor.histories)
    for database_id, store in columnar.histories.items():
        reference = actor.histories[database_id]
        assert store.login_timestamps() == reference.login_timestamps()
        assert store.tuple_count == reference.tuple_count
        assert store.size_bytes() == reference.size_bytes()


class TestColumnarMatchesActor:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("policy", ["proactive", "reactive"])
    def test_full_ledger_equivalence(self, seed, policy):
        traces = _region_traces(seed)
        results, snapshots = _run_both_engines(
            traces, policy, DEFAULT_CONFIG, _region_settings()
        )
        _assert_ledgers_identical(results, snapshots)

    def test_equivalence_with_maintenance_and_outage(self):
        traces = _region_traces(seed=7)
        settings = _region_settings(
            maintenance_per_week=1.0,
            prorp_outages=((8 * DAY + 3600, 8 * DAY + 5 * 3600),),
        )
        results, snapshots = _run_both_engines(
            traces, "proactive", DEFAULT_CONFIG, settings
        )
        _assert_ledgers_identical(results, snapshots)

    @pytest.mark.parametrize("chaos_seed", [1, 4])
    def test_equivalence_under_armed_fault_plan(self, chaos_seed):
        """Both engines consult and fire the same faults in the same
        order, so the injector ledger -- not just the KPIs -- matches."""
        traces = _region_traces(seed=5)
        settings = _region_settings()
        ledgers = {}
        results = {}
        for engine in ("actor", "columnar"):
            HOT_PATH.reset()
            with chaos(ARMED_PLAN, seed=chaos_seed) as injector:
                results[engine] = simulate_region(
                    traces,
                    "proactive",
                    DEFAULT_CONFIG,
                    dataclasses.replace(settings, engine=engine),
                )
                ledgers[engine] = injector.snapshot()
        assert ledgers["columnar"] == ledgers["actor"]
        assert ledgers["columnar"]["fires"], "the armed plan never fired"
        kpis = {engine: result.kpis() for engine, result in results.items()}
        assert dataclasses.asdict(kpis["columnar"]) == dataclasses.asdict(kpis["actor"])
        for mine, theirs in zip(
            results["columnar"].outcomes, results["actor"].outcomes
        ):
            assert vars(mine) == vars(theirs)


class TestDefaultEngineBuildsNoActor:
    """Every setting runs on the columnar engine unless a caller names
    the actors."""

    @pytest.fixture
    def actors(self, monkeypatch):
        """Every actor constructed while the test runs."""
        built = []
        init = _BaseActor.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_BaseActor, "__init__", counting)
        return built

    @pytest.mark.parametrize(
        "overrides",
        [
            {"use_fast_predictor": False},
            {"maintenance_per_week": 1.0},
            {"prorp_outages": ((8 * DAY + 3600, 8 * DAY + 5 * 3600),)},
            {"predictor_bank": ("sliding", "hybrid_histogram")},
            {"collect_timelines": True},
            {"collect_predictions": True},
        ],
    )
    def test_no_actor_under_any_setting(self, actors, overrides):
        traces = _region_traces(seed=0, n=20)
        simulate_region(traces, "proactive", CONFIG, _region_settings(**overrides))
        assert actors == []
        simulate_region(
            traces,
            "proactive",
            CONFIG,
            _region_settings(engine="actor", **overrides),
        )
        assert len(actors) == len(traces)

    def test_no_actor_under_an_armed_fault_plan(self, actors):
        traces = _region_traces(seed=0, n=20)
        with chaos(ARMED_PLAN, seed=1):
            simulate_region(traces, "proactive", CONFIG, _region_settings())
        assert actors == []


@pytest.fixture
def hot_at_loop_entry(monkeypatch):
    """``HOT_PATH`` snapshots taken as each columnar event loop begins,
    i.e. after the settle batch and before any speculation batch."""
    seen = []
    run_until = ColumnarRegionEngine.run_until

    def probe(self, end):
        seen.append(HOT_PATH.snapshot())
        return run_until(self, end)

    monkeypatch.setattr(ColumnarRegionEngine, "run_until", probe)
    return seen


@pytest.fixture
def misses_at_kernel_calls(monkeypatch):
    """``HOT_PATH.cache_misses`` as each ``predict_fleet`` call begins."""
    seen = []
    predict_fleet = FastPredictor.predict_fleet

    def probe(self, fleet_logins, now):
        seen.append(HOT_PATH.cache_misses)
        return predict_fleet(self, fleet_logins, now)

    monkeypatch.setattr(FastPredictor, "predict_fleet", probe)
    return seen


def _follow_up_rounds(misses_at_calls, settle):
    """Split the loop's kernel calls: each is opened by exactly one miss
    or is the follow-up round of the batch just opened.  Returns the
    number of follow-up rounds."""
    rounds, misses, opened = 0, settle["cache_misses"], False
    for seen in misses_at_calls[settle["batch_evals"]:]:
        if seen == misses + 1:
            opened = True
        else:
            assert seen == misses and opened, "a kernel call no miss opened"
            rounds, opened = rounds + 1, False
        misses = seen
    return rounds


class TestBucketBatchesMatchActor:
    """A 400-database fleet on a 2-day history refreshes hundreds of times
    in the loop, so these runs reach the speculation batches -- answers
    computed at one instant and taken at a later one -- far more often
    than the 40-database scenarios above."""

    def _traces(self, seed):
        spec = FleetShardSpec(n_databases=400, span_days=4, seed=seed)
        return spec.materialize().to_traces()

    @pytest.mark.parametrize(
        "seed, overrides",
        [
            (1, {}),
            (2, {}),
            (
                1,
                {
                    "maintenance_per_week": 1.0,
                    "prorp_outages": ((3 * DAY + 10 * 3600, 3 * DAY + 14 * 3600),),
                },
            ),
        ],
        ids=["seed1", "seed2", "seed1-maintenance-outage"],
    )
    def test_bucket_answers_equal_per_database_scans(
        self, seed, overrides, hot_at_loop_entry, misses_at_kernel_calls
    ):
        settings = _region_settings(
            span_days=4, collect_predictions=True, **overrides
        )
        results, snapshots = _run_both_engines(
            self._traces(seed), "proactive", CONFIG, settings
        )
        _assert_ledgers_identical(results, snapshots)
        assert sum(len(o.predictions) for o in results["columnar"].outcomes) > 0
        # Each kernel call of the loop was opened by exactly one refresh
        # that found no parked answer or is the follow-up round of the
        # batch that refresh opened (answers at ``instant + 1`` for the
        # ``start == end == instant`` answers), none was a scalar scan, and
        # the speculated answers (not just the settle batch) answered a
        # good share of the refreshes.
        columnar = snapshots["columnar"]
        [settle] = hot_at_loop_entry
        rounds = _follow_up_rounds(misses_at_kernel_calls, settle)
        assert rounds > 0
        assert columnar["cache_misses"] + rounds == (
            columnar["batch_evals"] - settle["batch_evals"]
        )
        assert columnar["full_scans"] == 0
        assert columnar["cache_hits"] - settle["cache_hits"] >= 100

    def test_answers_are_taken_at_later_instants(self, taken_answers):
        """Speculation is not same-instant batching in disguise: most taken
        answers were computed at an earlier instant than the refresh
        that took them, and every ledger still equals the actors'."""
        settings = _region_settings(span_days=4, collect_predictions=True)
        results, snapshots = _run_both_engines(
            self._traces(2), "proactive", CONFIG, settings
        )
        _assert_ledgers_identical(results, snapshots)
        later = [entry for entry in taken_answers if entry[1] < entry[2]]
        assert len(later) >= 300
        assert all(taken - computed <= SPECULATION_S for _, computed, taken in later)

    def test_bucket_batches_under_armed_fault_plan(self):
        traces = self._traces(1)
        settings = _region_settings(span_days=4, collect_predictions=True)
        ledgers, results, snapshots = {}, {}, {}
        for engine in ("actor", "columnar"):
            HOT_PATH.reset()
            with chaos(ARMED_PLAN, seed=3) as injector:
                results[engine] = simulate_region(
                    traces,
                    "proactive",
                    CONFIG,
                    dataclasses.replace(settings, engine=engine),
                )
                ledgers[engine] = injector.snapshot()
            snapshots[engine] = HOT_PATH.snapshot()
        assert ledgers["columnar"] == ledgers["actor"]
        assert ledgers["columnar"]["fires"], "the armed plan never fired"
        _assert_ledgers_identical(results, snapshots)
        assert snapshots["columnar"]["batch_evals"] > 1

    def test_speculation_candidates(self):
        """Membership cases the fleets above rarely produce (maintenance
        times are drawn to the second): speculation picks exactly the live
        wakes and the expired logouts of the next hour, past any hold,
        never the refreshing database itself."""
        now = 3 * DAY
        soon, later = now + 600, now + SPECULATION_S + 1
        # (phase, wake_at, session end, pred_end, maint_until, origin)
        rows = [
            (PH_LOGICAL, soon, 0, 0, 0, 0),  # 0: wake -> yes
            (PH_LOGICAL, soon, 0, 0, 0, ORIGIN_MAINTENANCE),  # 1: closes a hold
            (PH_LOGICAL, NONE_TS, 0, 0, 0, 0),  # 2: wake cancelled
            (PH_LOGICAL, soon, 0, 0, soon + 1, 0),  # 3: held past its wake
            (PH_LOGICAL, later, 0, 0, 0, 0),  # 4: past the horizon
            (PH_LOGICAL, now, 0, 0, 0, 0),  # 5: queued at this instant -> yes
            (PH_RESUMED, NONE_TS, soon, 0, 0, 0),  # 6: logout -> yes
            (PH_RESUMED, NONE_TS, soon, soon, 0, 0),  # 7: prediction live
            (PH_RESUMED, NONE_TS, later, 0, 0, 0),  # 8: past the horizon
            (PH_RESUMED, NONE_TS, soon, 0, soon + 1, 0),  # 9: held
            (PH_RESUMED, NONE_TS, now + SPECULATION_S, 0, 0, 0),  # 10: yes
            (PH_RESUMED, NONE_TS, soon, 0, 0, 0),  # 11: the refresher
            (PH_RESUMING, NONE_TS, soon, 0, 0, 0),  # 12: not a logout refresh
        ]
        n = len(rows)
        offsets = np.arange(n + 1, dtype=np.int64)
        ends = np.array([row[2] for row in rows], dtype=np.int64)
        no_maintenance = np.zeros(n + 1, dtype=np.int64)
        state = ColumnarState(
            n, offsets, ends - 60, ends,
            no_maintenance, no_maintenance[:0], no_maintenance[:0],
            np.zeros(n, dtype=np.int64),
        )
        for d, (phase, wake_at, _, pred_end, maint_until, origin) in enumerate(rows):
            state.phase[d] = phase
            state.wake_at[d] = wake_at
            state.pred_end[d] = pred_end
            state.maint_until[d] = maint_until
            state.pause_origin[d] = origin
        class History:
            def older_than(self, ds, history_starts):
                return ds != 6  # 6: a new database, its refresh never predicts

            def login_array(self, d):
                return np.array([now - DAY + 60 * d], dtype=np.int64)

        engine = ColumnarRegionEngine(
            state, proactive=True, config=CONFIG, sim_start=0,
            sim_end=4 * DAY, acct=None, hist=History(), meta=None,
            cluster=None, ids=[f"db-{d}" for d in range(n)],
            fast_predictor=FastPredictor(CONFIG),
        )
        members, instants = engine._speculation_candidates(11, now)
        assert dict(zip(members.tolist(), instants.tolist())) == {
            0: soon, 5: now, 6: soon, 10: now + SPECULATION_S,
        }
        engine.sim_end = now + 900  # 8's logout clips to the end of the run
        members, instants = engine._speculation_candidates(11, now)
        assert dict(zip(members.tolist(), instants.tolist())) == {
            0: soon, 5: now, 6: soon, 8: now + 900, 10: now + 900,
        }
        engine.sim_end = 4 * DAY
        # _speculate drops 6 (history new at its own instant) and 0 (it
        # holds a valid answer for its wake), then answers 11, 5 and 10.
        engine._hold(0, soon, CONFIG, PredictedActivity.none())
        HOT_PATH.reset()
        engine._speculate(11, now)
        assert HOT_PATH.batch_evals == 1 and HOT_PATH.batch_databases == 3
        assert {d: int(state.parked_at[d]) for d in engine._parked} == {
            0: soon, 5: now, 10: now + SPECULATION_S,
        }

    @staticmethod
    def _tiny_engine(n, logins, next_logins=()):
        """An engine over ``n`` rows, each with the same old history
        ``logins``; row ``d`` has one 60 s session from ``next_logins[d]``
        when given, none otherwise."""
        offsets = np.zeros(n + 1, dtype=np.int64)
        offsets[1:] = np.minimum(np.arange(1, n + 1), len(next_logins))
        starts = np.array(next_logins, dtype=np.int64)
        state = ColumnarState(
            n, offsets, starts, starts + 60, np.zeros(n + 1, dtype=np.int64),
            starts[:0], starts[:0], np.zeros(n, dtype=np.int64),
        )

        class History:
            def older_than(self, ds, history_starts):
                return np.ones(len(ds), dtype=bool)

            def login_array(self, d):
                return np.array(logins, dtype=np.int64)

        engine = ColumnarRegionEngine(
            state, proactive=True, config=CONFIG, sim_start=0,
            sim_end=4 * DAY, acct=None, hist=History(), meta=None,
            cluster=None, ids=[f"db-{d}" for d in range(n)],
            fast_predictor=FastPredictor(CONFIG),
        )
        return engine, state

    def test_a_parked_answer_needs_instant_knobs_and_login_count(self):
        """A refresh takes a parked answer only when all three match."""
        now = 3 * DAY
        engine, state = self._tiny_engine(1, [now - DAY + 60])
        truth = FastPredictor(CONFIG).predict([now - DAY + 60], now)
        bogus = PredictedActivity(start=1, end=2, confidence=1.0)
        assert bogus != truth
        other = dataclasses.replace(CONFIG, history_days=3)
        for at, config, logins_since in (
            (now - 1, CONFIG, 0), (now, other, 0), (now, CONFIG, 1),
        ):
            engine._hold(0, at, config, bogus)
            state.login_count[0] += logins_since
            assert engine._predict_sliding(0, CONFIG, now) == truth
            # dropped, not left behind
            assert 0 not in engine._parked and state.parked_at[0] == NONE_TS
        engine._hold(0, now, CONFIG, bogus)
        assert engine._predict_sliding(0, CONFIG, now) == bogus
        # Equal knobs in another object match too (identity is a shortcut).
        engine._hold(0, now, dataclasses.replace(CONFIG), bogus)
        assert engine._predict_sliding(0, CONFIG, now) == bogus

    def test_a_follow_up_needs_the_taken_instant_and_login_count(self):
        """A follow-up is parked at ``instant + 1`` only by the take of
        the very answer it follows: same instant, same login count."""
        now = 3 * DAY
        engine, state = self._tiny_engine(1, [now - 2 * DAY, now - DAY])
        bogus = PredictedActivity(start=1, end=2, confidence=1.0)
        for at, logins_since in ((now - 1, 0), (now + 1, 0), (now, 1)):
            engine._follow[0] = (at, int(state.login_count[0]), bogus)
            state.login_count[0] += logins_since
            engine._promote(0, now)
            assert 0 not in engine._follow and state.parked_at[0] == NONE_TS
        engine._follow[0] = (now, int(state.login_count[0]), bogus)
        engine._promote(0, now)
        assert 0 not in engine._follow and state.parked_at[0] == now + 1
        assert engine._predict_sliding(0, CONFIG, now + 1) == bogus

    def test_follow_ups_stay_inside_the_horizon_and_the_run(self):
        """Only ``start == end == instant`` answers get a follow-up, one
        kernel call for all of them, and only while ``instant + 1`` is
        inside the speculation horizon and before the end of the run."""
        now = 3 * DAY
        engine, state = self._tiny_engine(6, [now - 2 * DAY, now - DAY])
        horizon = now + SPECULATION_S
        instants = [now, horizon - 1, horizon, now + 5, now + 7, 0]
        predictions = [PredictedActivity(at, at, 1.0) for at in instants]
        predictions[3] = PredictedActivity(now + 5, now + 6, 1.0)
        HOT_PATH.reset()
        engine._follow_up(list(range(6)), instants, predictions, now)
        assert HOT_PATH.batch_evals == 1 and HOT_PATH.batch_databases == 3
        oracle = FastPredictor(CONFIG)
        logins = engine.hist.login_array(0)
        assert engine._follow == {
            d: (instants[d], 0, oracle.predict(logins, instants[d] + 1))
            for d in (0, 1, 4)
        }
        engine._follow.clear()
        engine.sim_end = now + 8  # a wake at the end of the run never fires
        engine._follow_up(list(range(6)), instants, predictions, now)
        assert set(engine._follow) == {0}
        engine._follow.clear()
        HOT_PATH.reset()
        engine._follow_up([3], [now + 5], [predictions[3]], now)
        assert engine._follow == {} and HOT_PATH.batch_evals == 0

    def test_no_follow_up_when_a_login_cancels_the_wake(self):
        """A member whose next login comes by ``instant + 1`` gets no
        follow-up: that login cancels the re-decided wake before it
        refreshes, so the answer could never be taken."""
        now = 3 * DAY
        at = now + 5
        # Row 3's session is running (its logout is the instant); row 4
        # has none.  Neither has a login left.
        engine, state = self._tiny_engine(
            5, [now - 2 * DAY, now - DAY], [now + 3, at + 1, at + 2, now - 30]
        )
        predictions = [PredictedActivity(at, at, 1.0)] * 5
        HOT_PATH.reset()
        engine._follow_up(list(range(5)), [at] * 5, predictions, now)
        assert set(engine._follow) == {2, 3, 4}
        assert HOT_PATH.batch_databases == 3


_SPEC_NOW = 3 * DAY
_SPEC_HORIZON = _SPEC_NOW + SPECULATION_S
#: Instants around every boundary the candidate masks compare against.
_SPEC_TIMES = [
    _SPEC_NOW - 60, _SPEC_NOW, _SPEC_NOW + 1, _SPEC_NOW + 600,
    _SPEC_HORIZON - 1, _SPEC_HORIZON, _SPEC_HORIZON + 1,
]


@st.composite
def speculation_states(draw):
    """``(engine, d)``: a fleet whose columns are written row by row
    through the scalar handles, with wakes, holds, predictions and session
    ends drawn from :data:`_SPEC_TIMES` so they tie with ``now``, the
    horizon and each other, and session cursors that may sit at the end
    of the trace."""
    n = draw(st.integers(1, 8))
    counts = [draw(st.integers(0, 3)) for _ in range(n)]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = sum(counts)
    ends = np.array(
        sorted(draw(st.lists(st.sampled_from(_SPEC_TIMES), min_size=total,
                             max_size=total))),
        dtype=np.int64,
    )
    no_maintenance = np.zeros(n + 1, dtype=np.int64)
    state = ColumnarState(
        n, offsets, ends - 60, ends,
        no_maintenance, no_maintenance[:0], no_maintenance[:0],
        np.zeros(n, dtype=np.int64),
    )
    times = st.sampled_from(_SPEC_TIMES)
    for c in range(n):
        state.phase[c] = draw(
            st.sampled_from([PH_RESUMED, PH_LOGICAL, PH_PHYSICAL, PH_RESUMING])
        )
        state.wake_at[c] = draw(st.sampled_from([NONE_TS]) | times)
        state.pause_origin[c] = draw(
            st.sampled_from([ORIGIN_NONE, ORIGIN_PREWARM, ORIGIN_MAINTENANCE])
        )
        state.maint_until[c] = draw(st.sampled_from([0]) | times)
        state.pred_end[c] = draw(st.sampled_from([0]) | times)
        state.session_idx[c] = int(offsets[c]) + draw(st.integers(0, counts[c]))
    sim_end = draw(st.sampled_from([_SPEC_NOW + 600, _SPEC_HORIZON, 4 * DAY]))
    engine = ColumnarRegionEngine(
        state, proactive=True, config=CONFIG, sim_start=0, sim_end=sim_end,
        acct=None, hist=None, meta=None, cluster=None,
        ids=[f"db-{c}" for c in range(n)],
    )
    return engine, draw(st.integers(0, n - 1))


def _speculation_reference(engine, d, now):
    """``_speculation_candidates`` as a per-row loop over its docstring."""
    s, horizon = engine.s, now + SPECULATION_S
    expected = {}
    for c in range(s.n):
        if c == d:
            continue  # the refresher itself
        wake = s.wake_at[c]
        if (
            s.phase[c] == PH_LOGICAL
            and now <= wake <= horizon  # a live wake (NONE_TS < now)
            and s.pause_origin[c] != ORIGIN_MAINTENANCE
            and s.maint_until[c] <= wake
        ):
            expected[c] = wake
        elif s.phase[c] == PH_RESUMED and s.session_idx[c] < s.sess_offsets[c + 1]:
            logout = min(s.sess_ends[s.session_idx[c]], engine.sim_end)
            if (
                logout <= horizon
                and s.pred_end[c] < logout
                and s.maint_until[c] <= logout
            ):
                expected[c] = logout
    return expected


@hsettings(max_examples=300, deadline=None)
@given(speculation_states())
def test_speculation_candidates_match_a_per_row_reference(case):
    """The numpy masks see every write made through the scalar handles:
    membership and instants equal a per-row loop over the same rows."""
    engine, d = case
    members, instants = engine._speculation_candidates(d, _SPEC_NOW)
    assert len(members) == len(instants)
    got = dict(zip(members.tolist(), instants.tolist()))
    assert len(got) == len(members)
    assert got == _speculation_reference(engine, d, _SPEC_NOW)


def _speculation_fleet(extra_login):
    """Two databases on a 2-day history, evaluated on day 3.  ``b`` logs in
    at 10:00 and 14:00 each day but skips 14:00 on day 3: its 10:20
    logout predicts (14:00, 14:00), so it waits in a logical pause for a
    wake at 14:00.  ``a``'s 13:20 logout misses and speculates that wake.
    ``extra_login`` puts a login of ``b`` between the two."""
    hour = 3600
    a = [Session(day * DAY + 13 * hour + 600, day * DAY + 13 * hour + 1200)
         for day in range(4)]
    b = []
    for day in range(4):
        b.append(Session(day * DAY + 10 * hour, day * DAY + 10 * hour + 1200))
        if day < 3:
            b.append(Session(day * DAY + 14 * hour, day * DAY + 14 * hour + 1200))
    if extra_login:
        b.insert(-1, Session(3 * DAY + 13 * hour + 1800, 3 * DAY + 13 * hour + 2400))
    return [
        ActivityTrace("a", a, created_at=0),
        ActivityTrace("b", sorted(b, key=lambda s: s.start), created_at=0),
    ]


@pytest.fixture
def taken_answers(monkeypatch):
    """``(database, computed at, taken at)`` of every parked answer a
    columnar refresh takes."""
    taken, computed = [], {}
    park = ColumnarRegionEngine._park
    predict_sliding = ColumnarRegionEngine._predict_sliding

    def record_park(self, members, config, instants):
        for d, at in zip(members, instants):
            computed[(id(self), d)] = self.now
        return park(self, members, config, instants)

    def record_take(self, d, config, now):
        hits = HOT_PATH.cache_hits
        prediction = predict_sliding(self, d, config, now)
        if HOT_PATH.cache_hits > hits:
            taken.append((d, computed[(id(self), d)], now))
        return prediction

    monkeypatch.setattr(ColumnarRegionEngine, "_park", record_park)
    monkeypatch.setattr(ColumnarRegionEngine, "_predict_sliding", record_take)
    return taken


def test_a_login_between_speculation_and_use_drops_the_answer(taken_answers):
    """The wake's refresh still comes at 14:00 after ``b``'s extra login
    (its prediction is live, so the 13:40 logout does not refresh and the
    pause re-arms the same wake), but the answer parked at 13:20 was
    computed before that login: it is dropped and rescanned."""
    settings = _region_settings(span_days=4, collect_predictions=True)
    wake = 3 * DAY + 14 * 3600
    snapshots = {}
    for extra_login in (False, True):
        taken_answers.clear()
        results, snapshots[extra_login] = _run_both_engines(
            _speculation_fleet(extra_login), "proactive", CONFIG, settings
        )
        _assert_ledgers_identical(results, snapshots[extra_login])
        b_wakes = [entry for entry in taken_answers if entry[2] == wake]
        assert b_wakes == ([] if extra_login else [(1, wake - 2400, wake)])
    plain, relogged = snapshots[False]["columnar"], snapshots[True]["columnar"]
    assert relogged["cache_hits"] == plain["cache_hits"] - 1
    assert relogged["cache_misses"] == plain["cache_misses"] + 1


#: Afternoon login times of ``_degenerate_fleet``, seconds into the day.
_AFTERNOONS = (14 * 3600, 15 * 3600 + 7, 16 * 3600 + 30)


def _degenerate_fleet():
    """Databases that log in at the same second every day and skip their
    afternoon login on day 3: the morning logout predicts ``(t, t)`` for
    the afternoon login time ``t``, and the wake at ``t`` finds the logins
    of days 1 and 2 at exactly ``t - j * DAY``, so its answer is
    ``start == end == t`` and Algorithm 1 re-decides at ``t + 1``."""
    hour, traces = 3600, []
    for i, afternoon in enumerate(_AFTERNOONS):
        sessions = []
        for day in range(4):
            morning = day * DAY + 10 * hour
            sessions.append(Session(morning, morning + 1200))
            if day < 3:
                sessions.append(
                    Session(day * DAY + afternoon, day * DAY + afternoon + 1200)
                )
        traces.append(ActivityTrace(f"deg-{i}", sessions, created_at=0))
    return traces


def test_follow_up_answers_the_immediate_re_decision(monkeypatch, taken_answers):
    """Each degenerate answer's follow-up, computed in the same batch at
    ``instant + 1`` over the same view, equals a fresh ``predict`` there,
    is taken by the wake at ``instant + 1``, and every ledger (predictions
    included) still equals the actors'."""
    follow_ups = []
    follow_up = ColumnarRegionEngine._follow_up

    def record(self, members, instants, predictions, now):
        follow_up(self, members, instants, predictions, now)
        for d, at in zip(members, instants):
            entry = self._follow.get(d)
            if entry is not None and entry[0] == at:
                follow_ups.append((d, at, entry[2], self.hist.login_array(d).copy()))

    monkeypatch.setattr(ColumnarRegionEngine, "_follow_up", record)
    settings = _region_settings(span_days=4, collect_predictions=True)
    results, snapshots = _run_both_engines(
        _degenerate_fleet(), "proactive", CONFIG, settings
    )
    _assert_ledgers_identical(results, snapshots)
    oracle = FastPredictor(CONFIG)
    afternoons = {3 * DAY + afternoon for afternoon in _AFTERNOONS}
    assert {at for _, at, _, _ in follow_ups} >= afternoons
    taken = {(d, at) for d, _, at in taken_answers}
    for d, at, answer, logins in follow_ups:
        assert answer == oracle.predict(logins, at + 1)
        if at in afternoons:
            assert (d, at + 1) in taken


GRID = 15 * 60
#: The Algorithm 5 scan runs on the same grid, so pre-warms and the wakes
#: they arm share instants too (and a day takes 96 scans, not 1,440).
GRID_CONFIG = dataclasses.replace(CONFIG, resume_operation_period_s=GRID)


@st.composite
def grid_fleets(draw):
    """2-6 databases repeating a daily template whose session bounds sit
    on a 15-minute grid inside one 8-hour band, so most instants hold
    events of several databases; back-to-back sessions put a logout and
    a login of one database on the same instant."""
    traces = []
    for i in range(draw(st.integers(min_value=2, max_value=6))):
        template = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=32, max_value=63),
                    st.integers(min_value=1, max_value=8),
                ),
                min_size=1,
                max_size=3,
            )
        )
        skipped = draw(st.sets(st.integers(min_value=0, max_value=3), max_size=2))
        sessions = []
        for day in range(4):
            if day in skipped:
                continue
            for slot, length in sorted(template):
                start = day * DAY + slot * GRID
                if not sessions or start >= sessions[-1].end:
                    sessions.append(Session(start, start + length * GRID))
        traces.append(ActivityTrace(f"grid-{i}", sessions, created_at=0))
    return traces


@hsettings(max_examples=50, deadline=None)
@given(traces=grid_fleets())
def test_colliding_instants_match_actor(traces):
    """Actor ≡ columnar, predictions included, when many databases -- and
    sometimes two events of one database -- share an instant."""
    settings = _region_settings(span_days=4, collect_predictions=True)
    results, snapshots = _run_both_engines(
        traces, "proactive", GRID_CONFIG, settings
    )
    _assert_ledgers_identical(results, snapshots)


class TestHistoryBackendFollowsItsReader:
    """The columnar engine keeps Algorithms 2-3 in the array history where
    the vectorised kernel reads it and in one B-tree per database where
    the reference predictor does (Algorithm 4 over the B-tree)."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every ``HistoryStore`` constructed while the test runs."""
        stores = []
        init = HistoryStore.__init__

        def counting(self, *args, **kwargs):
            stores.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(HistoryStore, "__init__", counting)
        return stores

    def test_kernel_backed_run_builds_no_btree(self, built):
        traces = _region_traces(seed=0)
        result = simulate_region(traces, "proactive", CONFIG, _region_settings())
        assert built == []
        assert len(result.histories) == len(traces)
        assert sum(h.tuple_count for h in result.histories.values()) > 0

    def test_reference_predictor_reads_one_btree_per_database(self, built):
        traces = _region_traces(seed=0)
        settings = _region_settings(use_fast_predictor=False)
        results, snapshots = {}, {}
        for engine in ("columnar", "actor"):
            built.clear()
            HOT_PATH.reset()
            results[engine] = simulate_region(
                traces,
                "proactive",
                CONFIG,
                dataclasses.replace(settings, engine=engine),
            )
            snapshots[engine] = HOT_PATH.snapshot()
            assert len(built) == len(traces)
        assert snapshots["columnar"]["full_scans"] > 0
        _assert_ledgers_identical(results, snapshots)


class TestArrayHistoryRowCounts:
    """``LeanHistory.tuple_count`` against the actors' B-trees on fleets
    that reach each of its terms.  (Trims that delete rows: the 400-DB,
    2-day-history fleets of ``TestBucketBatchesMatchActor``.)"""

    def test_traces_running_past_eval_end(self):
        """A 35-day region evaluated on days 30-32, as fig7's day windows
        are: the sessions after ``eval_end`` are never dispatched."""
        traces = generate_region_traces(RegionPreset.EU1, 60, span_days=35, seed=4)
        settings = SimulationSettings(eval_start=30 * DAY, eval_end=32 * DAY)
        results, snapshots = _run_both_engines(
            traces, "proactive", DEFAULT_CONFIG, settings
        )
        _assert_ledgers_identical(results, snapshots)

    def test_witness_logout_and_sessions_closed_at_sim_start(self):
        """``sim_start`` is day 2 and the 2-day history is never trimmed.
        ``a``'s first session starts at ``sim_start``, so its login is
        never recorded and the witness is a logout; ``b`` and ``c`` each
        have a session ending at ``sim_start``, closed before the run
        without its logout being recorded (``c``'s next session starts
        right there)."""
        hour = 3600

        def sessions(*bounds):
            tail = (3 * DAY + 9 * hour, 3 * DAY + 10 * hour)
            return [Session(start, end) for start, end in (*bounds, tail)]

        traces = [
            ActivityTrace(
                "a",
                sessions(
                    (2 * DAY, 2 * DAY + hour), (2 * DAY + 5 * hour, 2 * DAY + 6 * hour)
                ),
                created_at=0,
            ),
            ActivityTrace(
                "b",
                sessions((DAY, 2 * DAY), (2 * DAY + 4 * hour, 2 * DAY + 5 * hour)),
            ),
            ActivityTrace(
                "c", sessions((DAY + hour, 2 * DAY), (2 * DAY, 2 * DAY + hour))
            ),
        ]
        results, snapshots = _run_both_engines(
            traces, "proactive", CONFIG, _region_settings(span_days=4)
        )
        _assert_ledgers_identical(results, snapshots)
        [witness, *_] = results["actor"].histories["a"].all_events()
        assert witness.event_type is EventType.ACTIVITY_END


class TestLeanFleetMatchesFullStores:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("policy", ["proactive", "reactive"])
    def test_kpi_equivalence(self, seed, policy):
        spec = FleetShardSpec(
            n_databases=150, span_days=5, seed=seed, new_database_fraction=0.15
        )
        fleet = spec.materialize()
        settings = SimulationSettings(
            eval_start=4 * DAY,
            eval_end=5 * DAY,
            n_nodes=-(-fleet.n // 48),
            node_capacity=64,
        )
        lean = simulate_fleet(fleet, policy, CONFIG, settings)
        full = simulate_region(fleet.to_traces(), policy, CONFIG, settings)
        # Every field, seconds included (``to_dict`` keeps only percentages).
        assert dataclasses.asdict(lean.kpis) == dataclasses.asdict(full.kpis())
        assert lean.n_databases == fleet.n
        assert lean.events_dispatched > 0
        assert lean.resume_op_runs == len(full.resume_iterations)
        assert lean.prewarms == sum(r.batch_size for r in full.resume_iterations)

    def test_reference_predictor_on_the_lean_path(self):
        """Both tiers run one driver body, so the lean tier takes the
        reference predictor (Algorithm 4 over the B-tree) too."""
        fleet = FleetShardSpec(
            n_databases=150, span_days=5, seed=7, new_database_fraction=0.15
        ).materialize()
        settings = SimulationSettings(
            eval_start=4 * DAY,
            eval_end=5 * DAY,
            n_nodes=-(-fleet.n // 48),
            node_capacity=64,
            use_fast_predictor=False,
        )
        lean = simulate_fleet(fleet, "proactive", CONFIG, settings)
        full = simulate_region(fleet.to_traces(), "proactive", CONFIG, settings)
        assert dataclasses.asdict(lean.kpis) == dataclasses.asdict(full.kpis())
        assert lean.prewarms == sum(r.batch_size for r in full.resume_iterations)
        assert lean.prewarms > 0
        assert lean.resume_op_runs == len(full.resume_iterations)

    def test_adaptive_seasonality_on_the_lean_path(self):
        """Per-database seasonality reads the login view, which the array
        history serves.  Fleetgen fleets are almost never weekly, so this
        one comes from the region generator, through the CSR arrays."""
        traces = generate_region_traces(RegionPreset.EU1, 60, span_days=35, seed=1)
        offsets, starts, ends = sessions_to_csr([t.sessions for t in traces])
        fleet = FleetSlice(
            ids=tuple(t.database_id for t in traces),
            created_at=np.array([t.created_at for t in traces], dtype=np.int64),
            sess_offsets=offsets,
            starts=starts,
            ends=ends,
        )
        settings = SimulationSettings(
            eval_start=32 * DAY, eval_end=35 * DAY, n_nodes=2, node_capacity=64
        )
        now = settings.sim_start
        weekly = [
            detect_seasonality(
                [s.start for s in t.sessions if s.start < now], now, 28
            ).seasonality
            is Seasonality.WEEKLY
            for t in traces
        ]
        assert any(weekly)
        adaptive = DEFAULT_CONFIG.with_overrides(auto_seasonality=True)
        lean = simulate_fleet(fleet, "proactive", adaptive, settings)
        actor = simulate_region(
            traces, "proactive", adaptive, dataclasses.replace(settings, engine="actor")
        )
        assert dataclasses.asdict(lean.kpis) == dataclasses.asdict(actor.kpis())
        daily = simulate_fleet(fleet, "proactive", DEFAULT_CONFIG, settings)
        assert lean.kpis.to_dict() != daily.kpis.to_dict()

    def test_prewarm_path_engages(self):
        spec = FleetShardSpec(n_databases=200, span_days=4, seed=1)
        settings = SimulationSettings(
            eval_start=3 * DAY, eval_end=4 * DAY, n_nodes=5, node_capacity=64
        )
        result = simulate_fleet(spec, "proactive", CONFIG, settings)
        assert result.prewarms > 0
        assert result.kpis.workflows.proactive_resumes > 0
        assert result.resume_op_runs > 0


class TestShardedDeterminism:
    def test_serial_and_pooled_merges_identical(self):
        spec = FleetShardSpec(n_databases=600, span_days=4, seed=3)
        settings = SimulationSettings(
            eval_start=3 * DAY, eval_end=4 * DAY, n_nodes=4, node_capacity=64
        )
        serial = simulate_fleet_sharded(
            spec, "proactive", CONFIG, settings,
            n_shards=3, executor=SerialExecutor(),
        )
        pooled = simulate_fleet_sharded(
            spec, "proactive", CONFIG, settings, n_shards=3, workers=3
        )
        assert dataclasses.asdict(serial.kpis) == dataclasses.asdict(pooled.kpis)
        assert [dataclasses.asdict(s) for s in serial.shard_kpis] == [
            dataclasses.asdict(s) for s in pooled.shard_kpis
        ]
        assert serial.events_dispatched == pooled.events_dispatched
        assert serial.n_shards == 3

    def test_merge_is_fieldwise_sum_of_shards(self):
        spec = FleetShardSpec(n_databases=300, span_days=4, seed=9)
        settings = SimulationSettings(
            eval_start=3 * DAY, eval_end=4 * DAY, n_nodes=4, node_capacity=64
        )
        sharded = simulate_fleet_sharded(
            spec, "proactive", CONFIG, settings,
            n_shards=4, executor=SerialExecutor(),
        )
        merged = merge_kpi_reports(sharded.shard_kpis)
        assert dataclasses.asdict(merged) == dataclasses.asdict(sharded.kpis)
        assert merged.n_databases == 300

    def test_merge_rejects_mismatched_windows(self):
        spec = FleetShardSpec(n_databases=60, span_days=4, seed=0)
        base = SimulationSettings(
            eval_start=3 * DAY, eval_end=4 * DAY, n_nodes=2, node_capacity=64
        )
        other = dataclasses.replace(base, eval_start=2 * DAY)
        a = simulate_fleet(spec, "reactive", CONFIG, base).kpis
        b = simulate_fleet(spec, "reactive", CONFIG, other).kpis
        with pytest.raises(SimulationError):
            merge_kpi_reports([a, b])

    def test_default_window_is_the_specs_last_day(self):
        """With no settings, a spec evaluates the last day of its span
        whether or not it is sharded (the sessions may end earlier)."""
        spec = FleetShardSpec(n_databases=200, span_days=4, seed=1)
        single = simulate_fleet(spec)
        sharded = simulate_fleet_sharded(
            spec, n_shards=1, executor=SerialExecutor()
        )
        assert (single.kpis.eval_start, single.kpis.eval_end) == (3 * DAY, 4 * DAY)
        assert dataclasses.asdict(single.kpis) == dataclasses.asdict(sharded.kpis)

    def test_shard_bounds_partition_the_fleet(self):
        bounds = shard_bounds(10, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        assert all(lo < hi for lo, hi in bounds)
        assert all(
            bounds[i][1] == bounds[i + 1][0] for i in range(len(bounds) - 1)
        )
        assert shard_bounds(2, 8) == [(0, 1), (1, 2)]


class TestFleetgenDeterminism:
    def test_materialize_is_pure(self):
        spec = FleetShardSpec(n_databases=500, span_days=5, seed=42)
        a = spec.materialize(100, 300)
        b = spec.materialize(100, 300)
        assert a.ids == b.ids
        assert (a.sess_offsets == b.sess_offsets).all()
        assert (a.starts == b.starts).all()
        assert (a.ends == b.ends).all()
        assert (a.created_at == b.created_at).all()

    def test_sessions_are_sorted_and_well_formed(self):
        fleet = FleetShardSpec(n_databases=300, span_days=9, seed=2).materialize()
        assert list(fleet.ids) == sorted(fleet.ids)
        for d in range(fleet.n):
            lo, hi = int(fleet.sess_offsets[d]), int(fleet.sess_offsets[d + 1])
            starts, ends = fleet.starts[lo:hi], fleet.ends[lo:hi]
            assert (ends > starts).all()
            assert (starts[1:] >= ends[:-1]).all(), "sessions overlap"
            if hi > lo:
                assert fleet.created_at[d] <= starts[0]

    def test_spec_validation(self):
        with pytest.raises(TraceError):
            FleetShardSpec(n_databases=0)
        with pytest.raises(TraceError):
            FleetShardSpec(n_databases=10, span_days=1)
        with pytest.raises(TraceError):
            FleetShardSpec(n_databases=10).materialize(5, 3)


class TestLeanGates:
    def _settings(self, **overrides):
        return SimulationSettings(
            eval_start=3 * DAY, eval_end=4 * DAY, n_nodes=2, node_capacity=64,
            **overrides,
        )

    def test_rejects_fault_injection(self):
        spec = FleetShardSpec(n_databases=20, span_days=4, seed=0)
        with chaos(ARMED_PLAN, seed=0):
            with pytest.raises(SimulationError, match="fault injection"):
                simulate_fleet(spec, "proactive", CONFIG, self._settings())

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"maintenance_per_week": 1.0}, "maintenance"),
            ({"collect_timelines": True}, "timelines"),
        ],
    )
    def test_rejects_unsupported_settings(self, overrides, match):
        spec = FleetShardSpec(n_databases=20, span_days=4, seed=0)
        with pytest.raises(SimulationError, match=match):
            simulate_fleet(
                spec, "proactive", CONFIG, self._settings(**overrides)
            )

    def test_rejects_analytic_policies(self):
        spec = FleetShardSpec(n_databases=20, span_days=4, seed=0)
        with pytest.raises(SimulationError, match="policies"):
            simulate_fleet(spec, "optimal", CONFIG, self._settings())
