"""Equivalence suite for the prediction hot path.

The batched fleet prediction (:meth:`FastPredictor.predict_fleet`) is a
pure optimisation: using it must leave every simulation result
byte-identical.  This suite pins that contract:

* ``predict_fleet`` returns exactly the per-database ``predict`` answers
  (property-based, arbitrary login sets / instants / knob combinations);
* end-to-end region simulations on the actor engine (one scan per
  prediction, never batched) and on the columnar engine (the settle phase
  answered by one ``predict_fleet`` batch, delivered by slot) produce
  identical KPIs, identical workflow event times, and identical pre-warm
  batches across >= 20 seeded scenarios, including weekly and adaptive
  seasonality and armed fault plans (where the injector's consultation
  ledger must match too -- the batch may not reorder fault points).
"""

import gc
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.config import DEFAULT_CONFIG, ProRPConfig, Seasonality
from repro.core import fast_predictor
from repro.core.fast_predictor import concat_logins, get_fast_predictor
from repro.core.prediction_cache import HOT_PATH
from repro.core.resume_service import SCAN_FAULT_POINT
from repro.faults import FaultPlan, FaultSpec, chaos
from repro.simulation.actor import PREDICTOR_FAULT_POINT
from repro.simulation.columnar import ColumnarRegionEngine
from repro.simulation.region import SimulationSettings, simulate_region
from repro.types import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    ActivityTrace,
    PredictedActivity,
    Session,
)

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR
SPAN_DAYS = 32

EVAL_KWARGS = dict(eval_start=30 * DAY, eval_end=31 * DAY, warmup_s=DAY)

#: Knob combinations the equivalence must hold under.
CONFIG_VARIANTS = {
    "daily": DEFAULT_CONFIG,
    "weekly": DEFAULT_CONFIG.with_overrides(seasonality=Seasonality.WEEKLY),
    "adaptive": DEFAULT_CONFIG.with_overrides(auto_seasonality=True),
    "tight": ProRPConfig(
        logical_pause_s=3 * HOUR,
        window_s=2 * HOUR,
        slide_s=15 * 60,
        confidence=0.3,
    ),
}

#: Fault plan armed in the chaos scenarios: the predictor raises sometimes
#: and the resume-operation scan flakes -- the settle batch must not change
#: which consultations happen, so both runs see the same fire sequence.
CHAOS_PLAN = FaultPlan.of(
    FaultSpec(PREDICTOR_FAULT_POINT, probability=0.25),
    FaultSpec(SCAN_FAULT_POINT, probability=0.1),
)

#: >= 20 seeded end-to-end scenarios (5 fleets x 5 variants).
SCENARIOS = [
    pytest.param(seed, variant, plan, id=f"seed{seed}-{variant}{'-chaos' if plan else ''}")
    for seed in range(5)
    for variant, plan in [
        ("daily", None),
        ("weekly", None),
        ("adaptive", None),
        ("tight", None),
        ("daily", CHAOS_PLAN),
    ]
]


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


# ----------------------------------------------------------------------
# predict_fleet == per-database predict (property-based)
# ----------------------------------------------------------------------


@st.composite
def fleet_logins(draw):
    """1-8 databases, each with 0-40 login timestamps (duplicates allowed,
    empties included -- the batched path must handle both)."""
    n = draw(st.integers(min_value=1, max_value=8))
    fleets = []
    for _ in range(n):
        logins = draw(
            st.lists(
                st.integers(min_value=0, max_value=40 * DAY),
                min_size=0,
                max_size=40,
            )
        )
        fleets.append(np.array(sorted(set(logins)), dtype=np.int64))
    return fleets


@hsettings(max_examples=40, deadline=None)
@given(
    fleet_logins(),
    st.integers(min_value=28 * DAY, max_value=32 * DAY),
    st.sampled_from(["daily", "weekly", "tight"]),
)
def test_predict_fleet_matches_per_database(fleets, now, variant):
    config = CONFIG_VARIANTS[variant]
    predictor = get_fast_predictor(config)
    batched = predictor.predict_fleet(fleets, now)
    singles = [predictor.predict(logins, now) for logins in fleets]
    assert batched == singles


def test_predict_fleet_odd_instants():
    """Non-slide-aligned instants and the t=0 edge."""
    predictor = get_fast_predictor(DEFAULT_CONFIG)
    fleets = [
        np.array([], dtype=np.int64),
        np.array([9 * HOUR + 17], dtype=np.int64),
        np.arange(0, 28 * DAY, 3 * HOUR + 11, dtype=np.int64),
    ]
    for now in (0, 100, 28 * DAY + 7, 29 * DAY + 12345):
        assert predictor.predict_fleet(fleets, now) == [
            predictor.predict(logins, now) for logins in fleets
        ]


# ----------------------------------------------------------------------
# predict_pairs == per-pair predict: a different `now` per database
# ----------------------------------------------------------------------

#: The knob shapes the interval sweep branches on, beyond CONFIG_VARIANTS:
#: a horizon spanning several periods (one login reaches several periods'
#: windows), windows narrower than the slide (gaps no window covers), a
#: single candidate window, and the two extreme confidence thresholds.
PAIR_VARIANTS = {
    **CONFIG_VARIANTS,
    "long_horizon": ProRPConfig(
        history_days=7, horizon_s=3 * DAY, window_s=5 * HOUR,
        slide_s=HOUR, confidence=0.25,
    ),
    "wide_window": ProRPConfig(
        history_days=5, horizon_s=2 * DAY + HOUR, window_s=2 * DAY,
        slide_s=20 * 60, confidence=0.4,
    ),
    "weekly_long": ProRPConfig(
        history_days=28, horizon_s=8 * DAY, window_s=DAY, slide_s=6 * HOUR,
        confidence=0.25, seasonality=Seasonality.WEEKLY,
    ),
    "narrow": ProRPConfig(
        history_days=6, window_s=10 * 60, slide_s=45 * 60, confidence=0.3,
    ),
    "single_window": ProRPConfig(
        history_days=4, horizon_s=DAY, window_s=DAY, confidence=0.5
    ),
    "one_in_p": ProRPConfig(history_days=6, window_s=3 * HOUR, confidence=1 / 6),
    "certain": ProRPConfig(
        history_days=3, window_s=8 * HOUR, slide_s=30 * 60, confidence=1.0
    ),
}


def _pairs(predictor, fleets, nows):
    concat, offsets = concat_logins(fleets)
    return predictor.predict_pairs(concat, offsets, np.asarray(nows, dtype=np.int64))


@st.composite
def pair_batches(draw):
    """``fleet_logins`` histories, each with an instant of its own."""
    fleets = draw(fleet_logins())
    nows = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=28 * DAY, max_value=32 * DAY),
                st.integers(min_value=0, max_value=45 * DAY),
            ),
            min_size=len(fleets),
            max_size=len(fleets),
        )
    )
    return fleets, nows


@hsettings(max_examples=80, deadline=None)
@given(pair_batches(), st.sampled_from(sorted(PAIR_VARIANTS)))
def test_predict_pairs_matches_per_pair_predict(batch, variant):
    fleets, nows = batch
    predictor = get_fast_predictor(PAIR_VARIANTS[variant])
    assert _pairs(predictor, fleets, nows) == [
        predictor.predict(logins, now) for logins, now in zip(fleets, nows)
    ]


@pytest.mark.parametrize("variant", sorted(PAIR_VARIANTS))
def test_predict_pairs_on_window_and_period_boundaries(variant):
    """Logins placed exactly on (and one second either side of) window
    starts, window ends and period boundaries: windows are closed on both
    ends, so a boundary login belongs to two windows' edges at once and,
    on a period boundary, to two periods."""
    config = PAIR_VARIANTS[variant]
    predictor = get_fast_predictor(config)
    period = config.seasonality.period_seconds
    periods = config.seasonality_periods_in_history
    rng = random.Random(variant)
    nudges = (0, -1, 1, config.window_s, config.window_s - 1,
              config.window_s + 1, period, -period)
    predicted = 0
    for _ in range(25):
        fleets, nows = [], []
        for _ in range(rng.randint(1, 6)):
            now = rng.choice([0, 100, 30 * DAY, rng.randint(0, 40 * DAY)])
            logins = set()
            # Two home windows per database, so periods pile up on them.
            homes = [rng.randint(0, config.windows_per_horizon) for _ in range(2)]
            for _ in range(rng.choice([0, 1, 2, 5, 30, 60])):
                lookback = rng.randint(0, periods + 1)
                window = rng.choice(homes)
                logins.add(
                    max(0, now + window * config.slide_s - lookback * period
                        + rng.choice(nudges))
                )
            fleets.append(np.array(sorted(logins), dtype=np.int64))
            nows.append(now)
        expected = [predictor.predict(l, n) for l, n in zip(fleets, nows)]
        assert _pairs(predictor, fleets, nows) == expected
        predicted += sum(not p.is_empty for p in expected)
    assert predicted  # the cases are not all trivially "no prediction"


@hsettings(max_examples=25, deadline=None)
@given(
    fleet_logins(),
    st.integers(min_value=28 * DAY, max_value=32 * DAY),
    st.sampled_from(sorted(PAIR_VARIANTS)),
    st.integers(min_value=1, max_value=5),
)
def test_predict_fleet_is_the_constant_now_case(fleets, now, variant, block):
    """``predict_fleet`` is ``predict_pairs`` with one shared ``now``,
    whatever the block size and whether logins arrive as arrays or tuples."""
    predictor = get_fast_predictor(PAIR_VARIANTS[variant])
    expected = _pairs(predictor, fleets, [now] * len(fleets))
    tuples = [tuple(logins.tolist()) for logins in fleets]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fast_predictor, "PAIR_BLOCK", block)
        assert predictor.predict_fleet(fleets, now) == expected
        assert predictor.predict_fleet(tuples, now) == expected
        assert predictor.predict_fleet(tuples[:1] + fleets[1:], now) == expected


#: Histories that break every part of the contract: unsorted, duplicated,
#: negative, far future, and the int64 extremes.
garbage_logins = st.lists(
    st.one_of(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.integers(min_value=-50 * DAY, max_value=50 * DAY),
    ),
    min_size=1,
    max_size=40,
)


@hsettings(max_examples=60, deadline=None)
@given(
    pair_batches(),
    garbage_logins,
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=45 * DAY),
    st.sampled_from(sorted(PAIR_VARIANTS)),
)
def test_garbage_neighbour_spoils_only_its_own_row(
    batch, garbage, position, garbage_now, variant
):
    """Isolation: no history, however malformed, changes a co-batched
    database's answer."""
    fleets, nows = batch
    predictor = get_fast_predictor(PAIR_VARIANTS[variant])
    expected = [predictor.predict(l, n) for l, n in zip(fleets, nows)]
    position = min(position, len(fleets))
    fleets = fleets[:position] + [np.array(garbage, dtype=np.int64)] + fleets[position:]
    nows = nows[:position] + [garbage_now] + nows[position:]
    answers = _pairs(predictor, fleets, nows)
    assert answers[:position] + answers[position + 1 :] == expected


def test_far_login_does_not_corrupt_neighbour():
    """Regression: the segmented search used to shift database ``i`` by
    ``i << 41``, so one login 2**42 away (a microsecond timestamp) moved
    the *next* database's answer."""
    predictor = get_fast_predictor(DEFAULT_CONFIG)
    now = 29 * DAY
    a = tuple(day * DAY + 9 * HOUR for day in range(1, 29))
    c = tuple(day * DAY + 14 * HOUR + 7 * day for day in range(1, 29, 2))
    want_a, want_c = predictor.predict(a, now), predictor.predict(c, now)
    assert not want_a.is_empty and not want_c.is_empty
    for stray in (2**42, 2**62, -(2**42), -5, now * 1_000_000):
        noisy = tuple(sorted(a + (stray,)))
        assert predictor.predict_fleet([a, noisy, c], now) == [
            want_a, want_a, want_c,
        ], stray


# ----------------------------------------------------------------------
# The batched kernel's working set: O(block), pinned as a number
# ----------------------------------------------------------------------


def _traced_peak_mib(fn):
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_predict_fleet_memory_is_bounded_by_the_block():
    """No per-(window, period) lane array: 500 28-day histories peak at
    a few MiB (the lane grid took 44.6), and a fleet twelve times larger
    adds only its own concatenated input and result list."""
    rng = np.random.default_rng(21)
    now = 29 * DAY
    fleets = [
        np.unique(rng.integers(DAY, now, size=rng.integers(2, 70)))
        for _ in range(6_000)
    ]
    predictor = get_fast_predictor(DEFAULT_CONFIG)
    small, small_mib = _traced_peak_mib(
        lambda: predictor.predict_fleet(fleets[:500], now)
    )
    large, large_mib = _traced_peak_mib(
        lambda: predictor.predict_fleet(fleets, now)
    )
    assert small_mib <= 8.0
    assert large_mib <= small_mib + 4.0
    # Block boundaries are invisible, and the answers are the scalar ones.
    assert large[:500] == small
    assert small[::5] == [predictor.predict(l, now) for l in fleets[:500:5]]
    assert sum(not p.is_empty for p in small) > 100


# ----------------------------------------------------------------------
# End-to-end: per-database scans (actor) == batched settle (columnar)
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


def _run(traces, config, engine, plan, chaos_seed=1234):
    settings = SimulationSettings(engine=engine, **EVAL_KWARGS)
    HOT_PATH.reset()
    if plan is None:
        result = simulate_region(traces, "proactive", config, settings)
        return result, None, HOT_PATH.snapshot()
    with chaos(plan, seed=chaos_seed) as injector:
        result = simulate_region(traces, "proactive", config, settings)
        ledger = (injector.total_consults(), dict(injector.consults),
                  injector.total_fires())
    return result, ledger, HOT_PATH.snapshot()


@pytest.mark.parametrize("seed, variant, plan", SCENARIOS)
def test_cache_is_invisible_end_to_end(seed, variant, plan):
    """The settle batch -- the one thing the deleted per-database cache
    ever delivered -- is invisible: the actors scan every prediction
    themselves, the columnar engine takes its ``sim_start`` answers from
    one ``predict_fleet`` call, and nothing observable differs."""
    traces = make_fleet(seed)
    config = CONFIG_VARIANTS[variant]
    scanned, scanned_ledger, scanned_hot = _run(traces, config, "actor", plan)
    batched, batched_ledger, batched_hot = _run(traces, config, "columnar", plan)
    assert batched.kpis().to_dict() == scanned.kpis().to_dict()
    assert batched.prewarm_batch_sizes() == scanned.prewarm_batch_sizes()
    assert _workflow_times(batched) == _workflow_times(scanned)
    # Under chaos the fault-point consultation sequence must match too:
    # a settle answer is taken *behind* the injector consult, never in
    # front of it.
    assert batched_ledger == scanned_ledger
    # The comparison is not vacuous: the batch ran and its answers were
    # used, each one replacing exactly one of the actors' scans.
    assert scanned_hot["batch_evals"] == 0
    assert batched_hot["batch_evals"] >= 1
    assert 1 <= batched_hot["cache_hits"] <= batched_hot["batch_databases"]
    assert (
        scanned_hot["full_scans"]
        == batched_hot["full_scans"] + batched_hot["cache_hits"]
    )


# ----------------------------------------------------------------------
# The settle slots: filled once, emptied by the start loop, sim_start only
# ----------------------------------------------------------------------

SIM_START = EVAL_KWARGS["eval_start"] - EVAL_KWARGS["warmup_s"]
AT_SIM_START = ((SIM_START, SIM_START + 1),)


@pytest.fixture
def engines_at_loop_entry(monkeypatch):
    """Every columnar engine, with a copy of its settle slots, captured as
    its event loop begins -- i.e. just after the start loop ended."""
    seen = []
    run_until = ColumnarRegionEngine.run_until

    def probe(self, end):
        seen.append((self, dict(self._settled)))
        return run_until(self, end)

    monkeypatch.setattr(ColumnarRegionEngine, "run_until", probe)
    return seen


def _settle_run(plan=None, **overrides):
    """One 48-database region per engine; returns the columnar hot-path
    snapshot and the injector ledger after checking the engines agree on
    both."""
    traces = make_fleet(0, n=48)
    reports, hot, ledgers = {}, {}, {}
    for engine in ("actor", "columnar"):
        settings = SimulationSettings(engine=engine, **EVAL_KWARGS, **overrides)
        HOT_PATH.reset()
        if plan is None:
            result = simulate_region(traces, "proactive", DEFAULT_CONFIG, settings)
        else:
            with chaos(plan, seed=7) as injector:
                result = simulate_region(
                    traces, "proactive", DEFAULT_CONFIG, settings
                )
                ledgers[engine] = injector.snapshot()
        reports[engine] = result.kpis().to_dict()
        hot[engine] = HOT_PATH.snapshot()
    assert reports["columnar"] == reports["actor"]
    assert ledgers.get("columnar") == ledgers.get("actor")
    return hot["columnar"], ledgers.get("columnar")


def test_settle_slots_are_taken_in_the_start_loop(engines_at_loop_entry):
    hot, _ = _settle_run()
    [(_, leftover)] = engines_at_loop_entry
    assert leftover == {}
    assert hot["batch_evals"] == 1
    assert hot["cache_hits"] == hot["batch_databases"] >= 6


def test_settle_slots_empty_after_injected_predictor_faults(engines_at_loop_entry):
    """The first three settle predictions raise: their parked answers are
    dropped by ``start``, the rest are taken."""
    plan = FaultPlan.of(
        FaultSpec(PREDICTOR_FAULT_POINT, windows=AT_SIM_START, max_fires=3)
    )
    hot, ledger = _settle_run(plan)
    [(_, leftover)] = engines_at_loop_entry
    assert leftover == {}
    assert ledger["fires"] == {PREDICTOR_FAULT_POINT: 3}
    assert hot["cache_hits"] == hot["batch_databases"] - 3


def test_settle_slots_empty_under_an_open_breaker(engines_at_loop_entry):
    """Five failures open the region's breaker; every later refresh of the
    start loop returns before the predictor, consult included -- so the
    fault, armed for all of ``sim_start``, fires only five times."""
    plan = FaultPlan.of(FaultSpec(PREDICTOR_FAULT_POINT, windows=AT_SIM_START))
    hot, ledger = _settle_run(plan)
    [(_, leftover)] = engines_at_loop_entry
    assert leftover == {}
    assert ledger["fires"] == {PREDICTOR_FAULT_POINT: 5}
    assert hot["batch_databases"] > 5 and hot["cache_hits"] == 0


def test_nothing_is_parked_under_an_outage_at_sim_start(engines_at_loop_entry):
    hot, _ = _settle_run(prorp_outages=((SIM_START - HOUR, SIM_START + HOUR),))
    [(_, leftover)] = engines_at_loop_entry
    assert leftover == {}
    assert hot["batch_evals"] == 0 and hot["cache_hits"] == 0


def test_settle_slots_empty_when_the_bank_skips_the_sliding_arm(
    engines_at_loop_entry, monkeypatch
):
    from repro.tuning.bank import PredictorBank

    monkeypatch.setattr(
        PredictorBank,
        "predict",
        lambda self, key, now, logins_fn, sliding_fn: PredictedActivity.none(),
    )
    hot, _ = _settle_run(predictor_bank=("survival",))
    [(_, leftover)] = engines_at_loop_entry
    assert leftover == {}
    assert hot["batch_databases"] >= 6
    assert hot["cache_hits"] == 0 and hot["full_scans"] == 0


def test_a_settle_answer_is_never_used_after_sim_start(monkeypatch):
    """Slots planted once the start loop is over sit untouched to the end
    of the run: every later prediction is at ``now > sim_start``."""
    bogus = PredictedActivity(start=1, end=2, confidence=1.0)
    planted = []
    run_until = ColumnarRegionEngine.run_until

    def plant(self, end):
        for d in range(self.s.n):
            self._settled[d] = (self.config, bogus)
        planted.append(self)
        return run_until(self, end)

    baseline, _ = _settle_run()
    monkeypatch.setattr(ColumnarRegionEngine, "run_until", plant)
    hot, _ = _settle_run()  # KPIs still equal the actors'
    [engine] = planted
    assert len(engine._settled) == engine.s.n
    assert hot == baseline
