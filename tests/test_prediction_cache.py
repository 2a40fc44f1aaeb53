"""Equivalence suite for the prediction hot path.

The batched fleet prediction (:meth:`FastPredictor.predict_fleet`) is a
pure optimisation: using it must leave every simulation result
byte-identical.  This suite pins that contract:

* ``predict_fleet`` returns exactly the per-database ``predict`` answers
  (property-based, arbitrary login sets / instants / knob combinations);
* end-to-end region simulations on the actor engine (one scan per
  prediction, never batched) and on the columnar engine (the settle phase
  and every instant where several databases refresh answered by
  ``predict_fleet`` batches, delivered by slot) produce
  identical KPIs, identical workflow event times, and identical pre-warm
  batches across >= 20 seeded scenarios, including weekly and adaptive
  seasonality and armed fault plans (where the injector's consultation
  ledger must match too -- the batch may not reorder fault points).
"""

import dataclasses
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


@hsettings(max_examples=80, deadline=None)
@given(pair_batches(), st.sampled_from(sorted(PAIR_VARIANTS)))
def test_single_pair_sweep_matches_predict(batch, variant):
    """The single-pair sweep behind ``predict_one`` answers and counts
    exactly as the grid: an empty history is no scan."""
    predictor = get_fast_predictor(PAIR_VARIANTS[variant])
    for logins, now in zip(*batch):
        before = HOT_PATH.full_scans
        grid = predictor.predict(logins, now)
        grid_scans = HOT_PATH.full_scans - before
        assert predictor._sweep_one(logins, now) == grid
        assert predictor.predict_one(logins, now) == grid
        assert HOT_PATH.full_scans - before == 3 * grid_scans
        assert grid_scans == (len(logins) > 0)


@pytest.mark.parametrize("history_days, sweeps", [(2, False), (28, True)])
def test_predict_one_sweeps_large_grids_only(monkeypatch, history_days, sweeps):
    """``predict_one`` sweeps the paper's 205 x 28 grid and keeps the grid
    for 205 x 2, where the sweep's fixed numpy cost is the larger."""
    config = dataclasses.replace(DEFAULT_CONFIG, history_days=history_days)
    swept = []
    sweep = fast_predictor.FastPredictor._sweep

    def spy(self, *args):
        swept.append(1)
        return sweep(self, *args)

    monkeypatch.setattr(fast_predictor.FastPredictor, "_sweep", spy)
    logins, now = np.array([20 * DAY, 27 * DAY + 600], dtype=np.int64), 28 * DAY
    predictor = fast_predictor.FastPredictor(config)
    assert predictor.predict_one(logins, now) == predictor.predict(logins, now)
    assert swept == ([1] if sweeps else [])


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
        assert [predictor._sweep_one(l, n) for l, n in zip(fleets, nows)] == expected
        predicted += sum(not p.is_empty for p in expected)
    assert predicted  # the cases are not all trivially "no prediction"


#: Knobs for the selection cases, sliding by an hour: a one-hour window
#: takes a login into one window of its period (two on a boundary), a
#: two- or three-hour window into a run of them, so a level can hold over
#: windows with no key of their own; thresholds of 1 and 2 of 2 periods
#: and 7 of 28, besides the paper's five-minute slide at P = 2 and 28.
SELECTION_VARIANTS = {
    "p2_any": ProRPConfig(
        history_days=2, window_s=3 * HOUR, slide_s=HOUR, confidence=0.5
    ),
    "p2_both": ProRPConfig(
        history_days=2, window_s=HOUR, slide_s=HOUR, confidence=1.0
    ),
    "p28_seven": ProRPConfig(
        history_days=28, window_s=2 * HOUR, slide_s=HOUR, confidence=0.25
    ),
    "p2_paper": dataclasses.replace(DEFAULT_CONFIG, history_days=2, confidence=1.0),
    "p28_paper": dataclasses.replace(DEFAULT_CONFIG, confidence=0.25),
}


@st.composite
def selection_batches(draw):
    """``(variant, fleets, nows)``: each database activates a run of
    adjacent windows in chosen numbers of periods -- ascending (a climb),
    equal (a plateau) or arbitrary -- starting anywhere from the first
    window to the last, so stretches end at the last window and one
    database's last window meets the next one's first in key space."""
    variant = draw(st.sampled_from(sorted(SELECTION_VARIANTS)))
    config = SELECTION_VARIANTS[variant]
    n_windows = config.windows_per_horizon
    periods = config.seasonality_periods_in_history
    period, slide = config.seasonality.period_seconds, config.slide_s
    fleets, nows = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        now = draw(st.integers(min_value=28 * DAY, max_value=30 * DAY))
        counts = draw(st.lists(st.integers(0, periods), min_size=1, max_size=5))
        shape = draw(st.sampled_from(["climb", "plateau", "any"]))
        if shape == "climb":
            counts = sorted(counts)
        elif shape == "plateau":
            counts = [counts[0]] * len(counts)
        first = draw(
            st.sampled_from([0, n_windows - len(counts), n_windows - 1])
            | st.integers(0, n_windows - 1)
        )
        offset = draw(st.sampled_from([0, 1, slide // 2, slide - 1]))
        logins = set()
        for k, count in enumerate(counts, start=max(first, 0)):
            if k >= n_windows:
                break
            lookbacks = draw(
                st.sets(st.integers(1, periods), min_size=count, max_size=count)
            )
            logins.update(now + k * slide - j * period + offset for j in lookbacks)
        fleets.append(np.array(sorted(logins), dtype=np.int64))
        nows.append(now)
    return variant, fleets, nows


@hsettings(max_examples=200, deadline=None)
@given(selection_batches())
def test_sweep_selection_matches_the_grid(batch):
    """The sorted-key selection (seed at the first qualifying window,
    climb while the adjacent window is strictly higher) equals the grid's
    window-by-window ``_select`` on plateaus, climbs, runs reaching the
    last window and thresholds above one period."""
    variant, fleets, nows = batch
    predictor = get_fast_predictor(SELECTION_VARIANTS[variant])
    expected = [predictor.predict(l, n) for l, n in zip(fleets, nows)]
    assert _pairs(predictor, fleets, nows) == expected
    assert [predictor._sweep_one(l, n) for l, n in zip(fleets, nows)] == expected


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


@hsettings(max_examples=40, deadline=None)
@given(pair_batches(), st.sampled_from(sorted(PAIR_VARIANTS)))
def test_predict_fleet_takes_one_now_per_database(batch, variant):
    """``predict_fleet(logins, nows)`` -- the serving batcher's call, one
    ``now`` per entry -- equals per-database ``predict`` at each instant,
    whether ``nows`` is a list or an array and logins arrays or tuples."""
    fleets, nows = batch
    predictor = get_fast_predictor(PAIR_VARIANTS[variant])
    expected = [predictor.predict(l, n) for l, n in zip(fleets, nows)]
    tuples = [tuple(logins.tolist()) for logins in fleets]
    assert predictor.predict_fleet(fleets, nows) == expected
    assert predictor.predict_fleet(tuples, np.array(nows)) == expected


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
    assert dataclasses.asdict(batched.kpis()) == dataclasses.asdict(scanned.kpis())
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
        == batched_hot["cache_hits"] + batched_hot["cache_misses"]
    )


# ----------------------------------------------------------------------
# The settle slots: filled once, emptied by the start loop, one instant only
# ----------------------------------------------------------------------

SIM_START = EVAL_KWARGS["eval_start"] - EVAL_KWARGS["warmup_s"]
AT_SIM_START = ((SIM_START, SIM_START + 1),)


@pytest.fixture
def engines_at_loop_entry(monkeypatch):
    """Every columnar engine, with a copy of its settle slots and of the
    hot-path counters, captured as its event loop begins -- i.e. just
    after the start loop ended, before any speculation batch."""
    seen = []
    run_until = ColumnarRegionEngine.run_until

    def probe(self, end):
        seen.append((self, dict(self._parked), HOT_PATH.snapshot()))
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
        reports[engine] = dataclasses.asdict(result.kpis())
        hot[engine] = HOT_PATH.snapshot()
    assert reports["columnar"] == reports["actor"]
    assert ledgers.get("columnar") == ledgers.get("actor")
    return hot["columnar"], ledgers.get("columnar")


def test_settle_slots_are_taken_in_the_start_loop(engines_at_loop_entry):
    _settle_run()
    [(_, leftover, settle)] = engines_at_loop_entry
    assert leftover == {}
    assert settle["batch_evals"] == 1
    assert settle["cache_hits"] == settle["batch_databases"] >= 6


def _daily(days, extra=()):
    """One 9:00-10:00 session on each of ``days``, plus ``extra``."""
    daily = [Session(day * DAY + 9 * HOUR, day * DAY + 10 * HOUR) for day in days]
    return sorted(daily + list(extra), key=lambda session: session.start)


def test_settle_batch_is_exactly_the_refreshes_at_sim_start(engines_at_loop_entry):
    """The settle batch answers exactly the databases whose ``start``
    predicts at ``sim_start`` -- the actor engine's predictions at that
    instant -- at each boundary of the selection: a session ending at
    ``sim_start`` is over, one starting then is running, a history
    younger than ``h`` skips the predictor, and no session left means a
    physical pause."""
    first_day, last_day = 0, SIM_START // DAY - 1
    after = range(SIM_START // DAY, EVAL_KWARGS["eval_end"] // DAY)
    traces = [
        ActivityTrace("idle", _daily([*range(first_day, last_day), *after])),
        ActivityTrace(
            "ended-at-start",
            _daily(
                [*range(first_day, last_day), *after],
                [Session(SIM_START - HOUR, SIM_START)],
            ),
        ),
        ActivityTrace(
            "starts-at-start",
            _daily(
                [*range(first_day, last_day), *after],
                [Session(SIM_START, SIM_START + HOUR)],
            ),
        ),
        ActivityTrace("young", _daily([*range(2, last_day), *after])),
        ActivityTrace("no-session-left", _daily(range(first_day, last_day))),
    ]
    predicted_at_start = {}
    for engine in ("actor", "columnar"):
        settings = SimulationSettings(
            engine=engine, collect_predictions=True, **EVAL_KWARGS
        )
        HOT_PATH.reset()
        result = simulate_region(traces, "proactive", DEFAULT_CONFIG, settings)
        predicted_at_start[engine] = {
            outcome.database_id
            for outcome in result.outcomes
            for now, *_ in outcome.predictions
            if now == SIM_START
        }
    assert predicted_at_start["actor"] == {"idle", "ended-at-start"}
    assert predicted_at_start["columnar"] == predicted_at_start["actor"]
    [(_, leftover, settle)] = engines_at_loop_entry
    assert leftover == {} and settle["batch_evals"] == 1
    # No refresh at sim_start missed the batch, and none of it went unused.
    assert settle["cache_misses"] == 0
    assert settle["cache_hits"] == settle["batch_databases"] == 2


def test_settle_slots_empty_after_injected_predictor_faults(engines_at_loop_entry):
    """The first three settle predictions raise: their parked answers are
    dropped by ``start``, the rest are taken."""
    plan = FaultPlan.of(
        FaultSpec(PREDICTOR_FAULT_POINT, windows=AT_SIM_START, max_fires=3)
    )
    _, ledger = _settle_run(plan)
    [(_, leftover, settle)] = engines_at_loop_entry
    assert leftover == {}
    assert ledger["fires"] == {PREDICTOR_FAULT_POINT: 3}
    assert settle["cache_hits"] == settle["batch_databases"] - 3


def test_settle_slots_empty_under_an_open_breaker(engines_at_loop_entry):
    """Five failures open the region's breaker; every later refresh of the
    start loop returns before the predictor, consult included -- so the
    fault, armed for all of ``sim_start``, fires only five times."""
    plan = FaultPlan.of(FaultSpec(PREDICTOR_FAULT_POINT, windows=AT_SIM_START))
    _, ledger = _settle_run(plan)
    [(_, leftover, settle)] = engines_at_loop_entry
    assert leftover == {}
    assert ledger["fires"] == {PREDICTOR_FAULT_POINT: 5}
    assert settle["batch_databases"] > 5 and settle["cache_hits"] == 0


def test_nothing_is_parked_under_an_outage_at_sim_start(engines_at_loop_entry):
    _settle_run(prorp_outages=((SIM_START - HOUR, SIM_START + HOUR),))
    [(_, leftover, settle)] = engines_at_loop_entry
    assert leftover == {}
    assert settle["batch_evals"] == 0 and settle["cache_hits"] == 0


def test_settle_slots_empty_when_the_bank_skips_the_sliding_arm(
    engines_at_loop_entry, monkeypatch
):
    from repro.tuning.bank import PredictorBank

    monkeypatch.setattr(
        PredictorBank,
        "predict",
        lambda self, key, now, logins_fn, sliding_fn: PredictedActivity.none(),
    )
    hot, _ = _settle_run(predictor_bank=("hybrid_histogram",))
    [(_, leftover, _)] = engines_at_loop_entry
    assert leftover == {}
    assert hot["batch_databases"] >= 6
    assert hot["cache_hits"] == 0 and hot["full_scans"] == 0


def test_a_settle_answer_is_never_used_after_sim_start(monkeypatch):
    """Slots planted once the start loop is over are never taken: every
    later prediction is at ``now > sim_start``, so a refresh pops its
    planted entry as stale, and the counters match a run without them."""
    bogus = PredictedActivity(start=1, end=2, confidence=1.0)
    planted = []
    run_until = ColumnarRegionEngine.run_until

    def plant(self, end):
        for d in range(self.s.n):
            self._hold(d, self.sim_start, self.config, bogus)
        planted.append(self)
        return run_until(self, end)

    baseline, _ = _settle_run()
    monkeypatch.setattr(ColumnarRegionEngine, "run_until", plant)
    hot, _ = _settle_run()  # KPIs still equal the actors'
    [engine] = planted
    assert baseline["batch_evals"] > 1  # the loop batched at least once
    left = [entry for entry in engine._parked.values() if entry[1] is bogus]
    assert len(left) < engine.s.n  # refreshes popped some of them
    assert hot == baseline
