"""Columnar (struct-of-arrays) region engine.

The per-actor simulator (:mod:`repro.simulation.actor`) keeps every
database's FSM state -- lifecycle phase, pause/resume timers, accounting
anchors, history cursors -- in a dedicated Python object, plus one bound
method closure per scheduled event.  That representation tops out around a
few hundred thousand databases before object overhead dominates.

This module re-hosts exactly the same state machine over numpy
struct-of-arrays owned by the region: one ``int8`` phase column, ``int64``
timer/anchor columns, bool flag columns, and CSR (offsets + flat values)
layouts for each database's sessions and maintenance operations.  Each
column has two handles: the scans mask the numpy array, the handlers index
a ``memoryview`` of the same buffer (Python scalars).  Events become flat
``(kind, db_index, epoch)`` tuples instead of closures, held in a calendar
queue: one list per simulated instant, in scheduling order, plus a heap of
the distinct instants.  Cancellable wake timers become an epoch counter
per database (a stale entry is skipped exactly like a cancelled
:class:`~repro.simulation.engine.Timer`).

The proactive refresh (Algorithm 1 lines 7-8) is batched by speculation:
the time of every refresh the next simulated hour will make is already
known -- a logout from the trace, a wake from its scheduled instant -- so
a refresh that finds no parked answer answers itself and all of those
with one :meth:`~repro.core.fast_predictor.FastPredictor.predict_fleet`
call, each at its own instant.  An answer is taken only at the instant,
knobs and login count it was computed for (why that is exact is in
``docs/algorithms.md``).

The engine is a line-by-line port of the actor code paths: every schedule
call, RNG draw, fault-injector consult, policy decision, metadata write,
and accounting call happens in the same order with the same arguments, so
a columnar run is **byte-identical** to an actor run (the property suite
in ``tests/simulation/test_columnar.py`` proves it over seeded scenarios,
including armed fault plans).  Where the two representations must agree is
pinned down in ``docs/fleet_scale.md``.

Storage/accounting sit behind three small seams (history, metadata,
accounting; the engine calls the real :class:`~repro.cluster.Cluster` by
database id), so one driver body, :func:`run_columnar_region` (Algorithm
5 included), serves two tiers:

* :func:`simulate_region_columnar` in this module keeps one
  :class:`~repro.simulation.results.DatabaseOutcome` per database -- what
  the equivalence suite compares against the actors;
* :func:`repro.simulation.fleet.simulate_fleet` replaces them with
  region-level scalar accounting for million-database runs.

The history backend follows its reader, on either tier.  The vectorised
kernel (the default) reads :class:`~repro.storage.history.LeanHistory`,
login cursors over one flat array; the reference predictor
(``use_fast_predictor=False``), which is Algorithm 4 over the B-tree,
reads one :class:`~repro.storage.history.HistoryStore` per database.
The actor engine always keeps its B-trees, so every actor ≡ columnar
test pins the array history against Algorithms 2-3 over the B-tree.

Both tiers keep ``sys.databases`` in :class:`LeanMetadata`: Algorithm
5 is a set-at-a-time filter, so a column per field is all it needs.  The
B-tree :class:`~repro.storage.metadata.MetadataStore` stays the actor
engine's and the SQL procedures' reference, and the actor-equivalence
suite pins this scan to its secondary-index scan.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import Cluster
from repro.config import ProRPConfig
from repro.core.fast_predictor import FastPredictor, get_fast_predictor
from repro.core.lifecycle import (
    STATE_CODES,
    STATE_FROM_CODE,
    LifecycleState,
    LifecycleTransition,
    transition_edge_codes,
)
from repro.core.policy import (
    IdleDecision,
    PolicyKind,
    decide_after_logical_pause,
    decide_on_idle,
    logical_pause_wake_time,
    prediction_expired,
    reactive_wake_time,
)
from repro.core.prediction_cache import HOT_PATH
from repro.core.predictor import predict_next_activity
from repro.core.resume_service import IterationRecord
from repro.errors import FaultInjectedError, SchemaError, SimulationError
from repro.faults.resilience import CircuitBreaker
from repro.faults.runtime import FAULTS
from repro.observability.runtime import OBS
from repro.simulation.actor import PREDICTOR_FAULT_POINT
from repro.simulation.region import (
    RegionSimulationResult,
    SessionArrays,
    _build_bank,
    _build_breaker,
    _build_cluster,
    _build_fast_predictor,
    _per_trace_setup,
    _start_resume_loop,
    _warm_history,
    sessions_to_csr,
)
from repro.simulation.results import DatabaseOutcome
from repro.storage.history import HistoryStore, LeanHistory, LeanHistoryView
from repro.types import (
    NO_PREDICTION_SENTINEL,
    ActivityTrace,
    EventType,
    PredictedActivity,
)

# ---------------------------------------------------------------------------
# Struct-of-arrays layout constants (documented in docs/fleet_scale.md)
# ---------------------------------------------------------------------------

#: Lifecycle phase codes (shared with repro.core.lifecycle.STATE_CODES).
PH_RESUMED = STATE_CODES[LifecycleState.RESUMED]
PH_LOGICAL = STATE_CODES[LifecycleState.LOGICALLY_PAUSED]
PH_PHYSICAL = STATE_CODES[LifecycleState.PHYSICALLY_PAUSED]
PH_RESUMING = STATE_CODES[LifecycleState.RESUMING]

#: Event kinds of the calendar-queue entries.
EV_SESSION_START = 0
EV_SESSION_END = 1
EV_RESUME_COMPLETE = 2
EV_WAKE = 3
EV_MAINTENANCE = 4
EV_RESUME_OP = 5

#: Pause-origin codes (the actor's ``_pause_origin`` string field).
ORIGIN_NONE = 0
ORIGIN_PREWARM = 1
ORIGIN_MAINTENANCE = 2

#: Sentinel for "no timestamp" columns (valid simulated times are >= 0).
NONE_TS = -1

#: Simulated seconds ahead a refresh with no parked answer speculates:
#: the known wakes and logouts up to ``now + SPECULATION_S`` share its
#: kernel call.
SPECULATION_S = 3600

#: Figure 4 as ``id(transition) -> (from_code, to_code)``: keyed by identity
#: (members are singletons) because ``Enum.__hash__`` runs in Python.
_EDGE_CODES: Dict[int, Tuple[int, int]] = {
    id(transition): codes for transition, codes in transition_edge_codes().items()
}

class ColumnarState:
    """The struct-of-arrays FSM state of one region's fleet.

    One row per database; every column is a flat numpy array.  This is the
    exact per-actor state of :class:`repro.simulation.actor._BaseActor`
    (plus the proactive prediction fields), transposed.

    Each column has two handles on one buffer: the scans mask the numpy
    array ``self.np.<column>``; the handlers index ``self.<column>``, a
    ``memoryview`` of it yielding Python scalars at about half numpy's
    scalar cost.  A write through either is visible through the other.
    """

    def __init__(
        self,
        n: int,
        sess_offsets: np.ndarray,
        sess_starts: np.ndarray,
        sess_ends: np.ndarray,
        maint_offsets: np.ndarray,
        maint_starts: np.ndarray,
        maint_ends: np.ndarray,
        created_at: np.ndarray,
    ):
        self.n = n
        c = self.np = SimpleNamespace()
        # Trace replay (CSR) -----------------------------------------------
        c.sess_offsets = sess_offsets
        c.sess_starts = sess_starts
        c.sess_ends = sess_ends
        c.maint_offsets = maint_offsets
        c.maint_starts = maint_starts
        c.maint_ends = maint_ends
        c.created_at = created_at
        # FSM --------------------------------------------------------------
        c.phase = np.full(n, PH_RESUMED, dtype=np.int8)
        c.session_idx = sess_offsets[:-1].astype(np.int64).copy()
        c.maint_idx = maint_offsets[:-1].astype(np.int64).copy()
        c.maint_until = np.zeros(n, dtype=np.int64)
        c.maint_from_physical = np.zeros(n, dtype=bool)
        # Timers: a wake is live iff wake_at != NONE_TS; wake_epoch stamps
        # heap entries so stale pops are skipped (the cancelled-Timer path).
        c.wake_epoch = np.zeros(n, dtype=np.int64)
        c.wake_at = np.full(n, NONE_TS, dtype=np.int64)
        # Accounting anchors (the actor's Optional[int] fields).
        c.active_since = np.full(n, NONE_TS, dtype=np.int64)
        c.pause_start = np.full(n, NONE_TS, dtype=np.int64)
        c.pause_origin = np.full(n, ORIGIN_NONE, dtype=np.int8)
        c.resume_started_at = np.full(n, NONE_TS, dtype=np.int64)
        c.idle_since = np.full(n, NONE_TS, dtype=np.int64)
        c.deferred_session_end = np.zeros(n, dtype=bool)
        c.holds_slot = np.zeros(n, dtype=bool)
        c.fault_degraded = np.zeros(n, dtype=bool)
        # Prediction state (proactive only).
        c.old = np.zeros(n, dtype=bool)
        c.pred_start = np.zeros(n, dtype=np.int64)
        c.pred_end = np.zeros(n, dtype=np.int64)
        c.pred_conf = np.zeros(n, dtype=np.float64)
        # Logins seen since sim_start, and the instant and login count of
        # the parked answer (NONE_TS: none) -- stale once the count moves.
        c.login_count = np.zeros(n, dtype=np.int64)
        c.parked_at = np.full(n, NONE_TS, dtype=np.int64)
        c.parked_logins = np.zeros(n, dtype=np.int64)
        # Lifecycle monotonicity guard (Lifecycle._last_transition_time).
        c.last_transition = np.full(n, -1, dtype=np.int64)
        for name, column in vars(c).items():
            setattr(self, name, column.data)

    def nbytes(self) -> int:
        """Total array bytes (reported by the fleet-scale benchmark)."""
        return sum(arr.nbytes for arr in vars(self.np).values())


# ---------------------------------------------------------------------------
# Per-database backends: outcome ledgers and the reference B-tree history
# ---------------------------------------------------------------------------


class StoreAccounting:
    """Accounting seam over real :class:`DatabaseOutcome` objects."""

    def __init__(self, outcomes: List[DatabaseOutcome]):
        self.outcomes = outcomes

    def add_used(self, d: int, start: int, end: int) -> None:
        self.outcomes[d].add_used(start, end)

    def add_unavailable(self, d: int, start: int, end: int) -> None:
        self.outcomes[d].add_unavailable(start, end)

    def add_idle(self, d: int, start: int, end: int, cause: str) -> None:
        self.outcomes[d].add_idle(start, end, cause)

    def record_login(
        self, d: int, t: int, served: bool, faulted: bool = False
    ) -> None:
        self.outcomes[d].record_login(t, served=served, faulted=faulted)

    def record_workflow(self, d: int, t: int, kind: str) -> None:
        self.outcomes[d].record_workflow(t, kind)

    def record_proactive_outcome(self, d: int, t: int, correct: bool) -> None:
        self.outcomes[d].record_proactive_outcome(t, correct=correct)

    def record_prediction(
        self, d: int, now: int, start: int, end: int, confidence: float
    ) -> None:
        self.outcomes[d].record_prediction(now, start, end, confidence)


class StoreHistory:
    """History seam over real per-database :class:`HistoryStore` objects."""

    def __init__(self, stores: List[HistoryStore]):
        self.stores = stores

    def record(self, d: int, t: int, event_type: EventType) -> None:
        self.stores[d].insert_history(t, event_type)

    def trim(self, d: int, history_days: int, now: int) -> bool:
        return self.stores[d].delete_old_history(history_days, now).old

    def login_array(self, d: int) -> np.ndarray:
        return self.stores[d].login_array()

    def login_timestamps(self, d: int) -> Sequence[int]:
        return self.stores[d].login_timestamps()

    def store(self, d: int) -> HistoryStore:
        return self.stores[d]


class NullHistory:
    """The reactive baseline records no history (actor parity)."""

    def record(self, d: int, t: int, event_type: EventType) -> None:
        pass


class LeanMetadata:
    """``sys.databases`` as columns, with Algorithm 5's scan vectorised.

    One state byte and one ``start_of_pred_activity`` per database;
    ``state`` is the caller's phase column when given (the engine's, so
    the two are one buffer).  The pre-warm scan selects ``lo <=
    start_of_pred_activity <= hi`` (inclusive, like the secondary-index
    range), keeps the hits whose state is PHYSICAL_PAUSE, and orders them
    by ``(start_of_pred_activity, database_id)`` exactly as the index scan
    yields rows.  The scan reads the numpy columns; the per-event writes
    go through ``_state`` / ``_pred``, memoryviews of the same buffers.
    """

    def __init__(self, ids: Sequence[str], state: Optional[np.ndarray] = None):
        n = len(ids)
        self.state = np.full(n, PH_RESUMED, dtype=np.int8) if state is None else state
        self.pred = np.zeros(n, dtype=np.int64)  # NO_PREDICTION_SENTINEL
        if all(ids[i] < ids[i + 1] for i in range(n - 1)):
            # Index-lexicographic ids (the fleetgen layout): rank == index.
            self.id_rank = np.arange(n, dtype=np.int64)
        else:
            order = sorted(range(n), key=ids.__getitem__)
            self.id_rank = np.empty(n, dtype=np.int64)
            self.id_rank[order] = np.arange(n, dtype=np.int64)
        self._state = self.state.data
        self._pred = self.pred.data

    def record_physical_pause(self, d: int, pred_start: int) -> None:
        if isinstance(pred_start, bool) or not isinstance(pred_start, int):
            raise SchemaError(
                f"start_of_pred_activity is a BIGINT, got {pred_start!r}"
            )
        self._state[d] = PH_PHYSICAL
        self._pred[d] = pred_start

    def prewarm_indices(self, now: int, prewarm_s: int, period_s: int) -> np.ndarray:
        lo = now + prewarm_s
        pred = self.pred
        idx = ((pred >= lo) & (pred <= lo + period_s)).nonzero()[0]
        if idx.size:
            idx = idx[self.state[idx] == PH_PHYSICAL]
            if idx.size > 1:
                idx = idx[np.lexsort((self.id_rank[idx], pred[idx]))]
        return idx

    def databases_to_prewarm(
        self, now: int, prewarm_s: int, period_s: int
    ) -> List[int]:
        """:meth:`prewarm_indices` as a list (Algorithm 5's SELECT)."""
        return self.prewarm_indices(now, prewarm_s, period_s).tolist()


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ColumnarRegionEngine:
    """Event-driven FSM over struct-of-arrays state.

    A mechanical port of :class:`repro.simulation.actor._BaseActor` /
    :class:`ReactiveActor` / :class:`ProactiveActor` plus the region loop
    of ``_simulate_region``: events run in the same ``(time, schedule
    order)`` sequence, every cluster allocation draws the shared RNG in
    the same order, and every fault point is consulted in the same order
    as the actor path, which is what makes the two byte-identical.
    """

    def __init__(
        self,
        state: ColumnarState,
        proactive: bool,
        config: ProRPConfig,
        sim_start: int,
        sim_end: int,
        acct,
        hist,
        meta,
        cluster: Cluster,
        ids: Sequence[str],
        fast_predictor: Optional[FastPredictor] = None,
        breaker: Optional[CircuitBreaker] = None,
        prorp_outages: Sequence[Tuple[int, int]] = (),
        collect_predictions: bool = False,
        preplaced: bool = False,
        bank=None,
    ):
        self.s = state
        self.proactive = proactive
        self.config = config
        self.sim_start = sim_start
        self.sim_end = sim_end
        self.acct = acct
        self.hist = hist
        self.meta = meta
        #: The real cluster, keyed by database id: ``ids[d]`` is row d's.
        self.cluster = cluster
        self.ids = ids
        self.fast_predictor = fast_predictor
        self.breaker = breaker
        self.prorp_outages = tuple(prorp_outages)
        self.collect_predictions = collect_predictions
        #: Whether a bulk ``place_fleet`` placed the fleet (lean mode);
        #: otherwise ``start`` places each database itself (actor parity).
        self.preplaced = preplaced
        #: Region-shared predictor bank (repro.tuning.bank); None keeps the
        #: paper's single sliding-window path.  A sliding-only bank is a
        #: pure delegate, byte-identical to None.
        self.bank = bank
        #: The policy's Algorithm 1 handlers, bound once.
        if proactive:
            self._handle_idle = self._handle_idle_proactive
            self._on_wake = self._on_wake_proactive
        else:
            self._handle_idle = self._handle_idle_reactive
            self._on_wake = self._on_wake_reactive
        self._now = sim_start
        #: Calendar queue: ``time -> [(kind, d, epoch), ...]`` in schedule
        #: order, plus a heap holding each pending instant once.
        self._buckets: Dict[int, List[Tuple[int, int, int]]] = {}
        self._times: List[int] = []
        #: Dispatched after the queue pops an EV_RESUME_OP entry; installed
        #: by ``schedule_resume_op``.
        self.on_resume_op: Optional[Callable[[int], None]] = None
        #: Batched answers ``d -> (config, prediction)``, parked by
        #: ``seed_initial_predictions`` and by ``_speculate`` and stamped
        #: in the ``parked_at`` / ``parked_logins`` columns; a refresh
        #: unparks its entry and takes it only if all three still match.
        self._parked: Dict[int, Tuple[ProRPConfig, PredictedActivity]] = {}
        #: Follow-up answers ``d -> (instant, login count, prediction)``
        #: for a speculated answer ``start == end == instant``, computed at
        #: ``instant + 1`` (``_follow_up``); parked when that answer is
        #: taken at that instant and login count (``_promote``).
        self._follow: Dict[int, Tuple[int, int, PredictedActivity]] = {}
        self.events_dispatched = 0

    # -- scheduling --------------------------------------------------------

    @property
    def now(self) -> int:
        return self._now

    def _push(self, time: int, kind: int, d: int, epoch: int = 0) -> None:
        """Mirror of ``EventQueue.schedule(_oneshot)``: appends to the
        instant's bucket, so same-time ordering matches the actors.  A
        push at the instant being dispatched opens a fresh bucket, which
        runs after every event queued before it."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time} before now={self._now}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(kind, d, epoch)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((kind, d, epoch))

    def _schedule_wake(self, d: int, at: int) -> None:
        s = self.s
        epoch = s.wake_epoch[d] + 1
        s.wake_epoch[d] = epoch
        if at <= self._now:
            at = self._now + 1
        if at < self.sim_end:
            s.wake_at[d] = at
            self._push(at, EV_WAKE, d, epoch)
        else:
            s.wake_at[d] = NONE_TS

    # -- lifecycle ---------------------------------------------------------

    def _apply(self, d: int, transition: LifecycleTransition, now: int) -> None:
        """``Lifecycle.apply`` over the phase column: same validation,
        same observability counter, same span attributes."""
        s = self.s
        from_code, to_code = _EDGE_CODES[id(transition)]
        if s.phase[d] != from_code:
            raise SimulationError(
                f"{self._db_label(d)}: illegal transition {transition.value} "
                f"from {STATE_FROM_CODE[s.phase[d]].value} at t={now} "
                f"(requires {STATE_FROM_CODE[from_code].value})"
            )
        if now < s.last_transition[d]:
            raise SimulationError(
                f"{self._db_label(d)}: transition at t={now} is before the "
                f"previous transition at t={s.last_transition[d]}"
            )
        if OBS.enabled:
            OBS.metrics.counter(f"lifecycle.transition.{transition.value}").inc()
            span = OBS.tracer.current_span
            if span is not None:
                span.set_attribute("transition", transition.value)
                span.set_attribute("db", self._db_label(d))
        s.phase[d] = to_code
        s.last_transition[d] = now

    def _db_label(self, d: int) -> str:
        return self.ids[d]

    # -- cluster slots -----------------------------------------------------

    def _acquire_slot(self, d: int) -> int:
        if self.s.holds_slot[d]:
            raise SimulationError(f"{self._db_label(d)}: slot already held")
        latency = self.cluster.allocate(self.ids[d]).latency_s
        self.s.holds_slot[d] = True
        return latency

    # -- prediction helpers ------------------------------------------------

    def _prorp_down(self, now: int) -> bool:
        return any(start <= now < end for start, end in self.prorp_outages)

    def _prediction_config(self, d: int, now: int) -> ProRPConfig:
        if not self.config.auto_seasonality:
            return self.config
        from repro.core.seasonality import config_for_seasonality, detect_seasonality

        diagnosis = detect_seasonality(
            self.hist.login_timestamps(d), now, self.config.history_days
        )
        return config_for_seasonality(self.config, diagnosis.seasonality)

    def _refresh_prediction(self, d: int, now: int) -> None:
        """Port of ``ProactiveActor._refresh_prediction``.  Every path
        but a successful prediction ends in the no-prediction sentinel;
        ``degraded`` is the fault flag it leaves (None: untouched)."""
        s = self.s
        if self.prorp_outages and self._prorp_down(now):
            degraded = None
        elif self.breaker is not None and not self.breaker.allow(now):
            degraded = True
        elif not self.hist.trim(d, self.config.history_days, now):
            degraded = False
        else:
            s.old[d] = True
            try:
                self._predict(d, now)
            except FaultInjectedError:
                if self.breaker is not None:
                    self.breaker.record_failure(now)
                degraded = True
            else:
                if self.breaker is not None:
                    self.breaker.record_success(now)
                s.fault_degraded[d] = False
                if self.collect_predictions:
                    self.acct.record_prediction(
                        d, now, s.pred_start[d], s.pred_end[d], s.pred_conf[d]
                    )
                return
        s.old[d] = False
        s.pred_start[d] = s.pred_end[d] = NO_PREDICTION_SENTINEL
        s.pred_conf[d] = 0.0
        if degraded is not None:
            s.fault_degraded[d] = degraded

    def _predict(self, d: int, now: int) -> None:
        """Port of ``ProactiveActor._predict``, writing the answer to the
        prediction columns."""
        if FAULTS.enabled and FAULTS.injector.should_fire(
            PREDICTOR_FAULT_POINT, now
        ):
            raise FaultInjectedError(
                PREDICTOR_FAULT_POINT, "injected: predictor backend failure"
            )
        config = self.config
        if config.auto_seasonality:
            config = self._prediction_config(d, now)
        if self.bank is not None:
            prediction = self.bank.predict(
                d,
                now,
                lambda: self.hist.login_array(d),
                lambda: self._predict_sliding(d, config, now),
            )
        else:
            prediction = self._predict_sliding(d, config, now)
        s = self.s
        s.pred_start[d] = prediction.start
        s.pred_end[d] = prediction.end
        s.pred_conf[d] = prediction.confidence

    def _predict_sliding(
        self, d: int, config: ProRPConfig, now: int
    ) -> PredictedActivity:
        """The paper's sliding-window path (Algorithm 4).  A parked answer
        for this instant, these knobs and this login count replaces the
        scan; it is taken only here, after the outage, breaker, trim and
        fault checks of the refresh have all run for this database.  Any
        other refresh opens a speculation batch (``_speculate``)."""
        if self.fast_predictor is None:
            return predict_next_activity(self.hist.store(d), config, now)
        s = self.s
        at = s.parked_at[d]
        if at != NONE_TS:
            s.parked_at[d] = NONE_TS
            parked, prediction = self._parked.pop(d)
            if (
                at == now
                and s.parked_logins[d] == s.login_count[d]
                and (parked is config or parked == config)
            ):
                HOT_PATH.cache_hits += 1
                if self._follow:
                    self._promote(d, now)
                return prediction
        HOT_PATH.cache_misses += 1
        if self.config.auto_seasonality:
            return get_fast_predictor(config).predict_one(
                self.hist.login_array(d), now
            )
        return self._speculate(d, now)

    def _hold(
        self, d: int, at: int, config: ProRPConfig, prediction: PredictedActivity
    ) -> None:
        """Park ``prediction`` as ``d``'s refresh at ``at`` under
        ``config``, stamped with its login count as of now."""
        self.s.parked_at[d] = at
        self.s.parked_logins[d] = self.s.login_count[d]
        self._parked[d] = (config, prediction)

    def _unpark(self, d: int) -> Optional[PredictedActivity]:
        """Drop ``d``'s parked answer, returning its prediction if any
        (``parked_at[d]`` is NONE_TS exactly when there is none)."""
        self.s.parked_at[d] = NONE_TS
        parked = self._parked.pop(d, None)
        return None if parked is None else parked[1]

    def _promote(self, d: int, at: int) -> None:
        """``d`` just took its answer at ``at``: park the follow-up computed
        for ``at + 1`` with it, if there is one for this login count."""
        follow = self._follow.pop(d, None)
        if follow is not None:
            base, logins, prediction = follow
            if base == at and logins == self.s.login_count[d]:
                self._hold(d, at + 1, self.config, prediction)

    def _speculation_candidates(
        self, d: int, now: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(databases, instants)`` of the refreshes other than ``d``'s
        that are known to come by ``now + SPECULATION_S`` as things stand:
        a live wake ending a non-maintenance logical pause past any
        maintenance hold, or the logout ending a resumed database's
        session whose prediction has expired by then, past any hold."""
        s = self.s.np
        horizon = now + SPECULATION_S
        wake_at = s.wake_at
        wakes = (
            (wake_at >= now)
            & (wake_at <= horizon)
            & (s.phase == PH_LOGICAL)
            & (s.pause_origin != ORIGIN_MAINTENANCE)
            & (s.maint_until <= wake_at)
        )
        wakes[d] = False
        resumed = np.flatnonzero(s.phase == PH_RESUMED)
        resumed = resumed[resumed != d]
        index = s.session_idx[resumed]
        in_trace = index < s.sess_offsets[resumed + 1]
        resumed, index = resumed[in_trace], index[in_trace]
        ends = np.minimum(s.sess_ends[index], self.sim_end)
        logouts = (
            (ends <= horizon)
            & (s.pred_end[resumed] < ends)
            & (s.maint_until[resumed] <= ends)
        )
        waking = np.flatnonzero(wakes)
        return (
            np.concatenate((waking, resumed[logouts])),
            np.concatenate((wake_at[waking], ends[logouts])),
        )

    def _speculate(self, d: int, now: int) -> PredictedActivity:
        """Answer ``d``'s refresh at ``now`` and park, from the same kernel
        call, an answer for each speculation candidate whose history will
        be old at its own instant and that holds no valid answer for it
        yet, then run the batch's follow-up round (``_follow_up``).  A
        candidate's refresh may never come (a login cancels the wake) or
        come later; its answer is then simply not taken."""
        s = self.s.np
        candidates, ats = self._speculation_candidates(d, now)
        # Without adaptive seasonality every answer is parked under this
        # engine's knobs, so a matching instant and login count is valid.
        unanswered = (s.parked_at[candidates] != ats) | (
            s.parked_logins[candidates] != s.login_count[candidates]
        )
        candidates, ats = candidates[unanswered], ats[unanswered]
        old = self.hist.older_than(candidates, ats - self.config.history_s)
        members = [d] + candidates[old].tolist()
        instants = [now] + ats[old].tolist()
        predictions = self._park(members, self.config, instants)
        self._follow_up(members, instants, predictions, now)
        prediction = self._unpark(d)
        if self._follow:
            self._promote(d, now)
        return prediction

    def _follow_up(
        self,
        members: List[int],
        instants: List[int],
        predictions: List[PredictedActivity],
        now: int,
    ) -> None:
        """The follow-up round of a speculation batch.  An answer with
        ``start == end == instant`` makes Algorithm 1 re-decide at once:
        the wake lands at ``instant + 1`` (``_schedule_wake``), a refresh
        no earlier batch knew of.  One more kernel call answers each such
        member at ``instant + 1`` over the same login view -- exact by the
        argument that covers every parked answer -- for ``_promote`` to
        park once the first answer is taken.  Only instants inside the
        batch's horizon (and the run) get one, and only for a member whose
        next login comes after ``instant + 1``: a login by then cancels
        the wake first (its event was scheduled earlier)."""
        limit = min(now + SPECULATION_S, self.sim_end - 1)
        again = [
            i
            for i, (at, prediction) in enumerate(zip(instants, predictions))
            if prediction.start == prediction.end == at != NO_PREDICTION_SENTINEL
            and at < limit
            and self._next_login(members[i], now) > at + 1
        ]
        if not again:
            return
        login_count = self.s.login_count
        ds = [members[i] for i in again]
        follow_ups = self.fast_predictor.predict_fleet(
            [self.hist.login_array(d) for d in ds], [instants[i] + 1 for i in again]
        )
        for d, i, prediction in zip(ds, again, follow_ups):
            self._follow[d] = (instants[i], login_count[d], prediction)

    def _next_login(self, d: int, now: int) -> int:
        """``d``'s first login after ``now`` (``sim_end`` when none is
        left): ``session_idx`` holds the running session of a resumed
        database and the next one of a paused database."""
        s = self.s
        idx, stop = s.session_idx[d], s.sess_offsets[d + 1]
        if idx < stop and s.sess_starts[idx] <= now:
            idx += 1
        return s.sess_starts[idx] if idx < stop else self.sim_end

    # -- settle-phase batching ---------------------------------------------

    def seed_initial_predictions(self) -> None:
        """Batch the settle-phase predictions into one fleet evaluation.

        ``start(d)`` reaches the predictor at ``sim_start`` only for a born
        database idle between sessions whose history is old, and all of
        them predict at that one instant.  Here those single-database
        Algorithm-4 scans become one :meth:`FastPredictor.predict_fleet`
        call per distinct configuration (adaptive seasonality can split
        the fleet), parked by index for ``_predict_sliding`` to take.
        Mutates nothing else: ``older_than`` reads the flag the refresh's
        trim will return, and neither the breaker (``allow`` can mutate
        it) nor the fault injector is consulted; the real refresh inside
        ``start`` does all three, in unchanged order.
        """
        if self.fast_predictor is None or self.sim_start <= 0:
            return
        if self._prorp_down(self.sim_start):
            return  # every refresh degrades to reactive without predicting
        s, t = self.s.np, self.sim_start
        lo, hi = s.sess_offsets[:-1], s.sess_offsets[1:]
        # Each database's first session still running or to come at t
        # (``start``'s skip loop: a database's sessions end in order).
        ended = np.concatenate(([0], np.cumsum(s.sess_ends <= t)))
        first = lo + ended[hi] - ended[lo]
        ds = np.flatnonzero(first < hi)  # no session left: physical pause
        # Born, and between sessions rather than in one.
        ds = ds[(s.created_at[ds] <= t) & (s.sess_starts[first[ds]] > t)]
        # A new database's refresh skips the predictor.
        ds = ds[self.hist.older_than(ds, np.full(ds.size, t - self.config.history_s))]
        groups: Dict[ProRPConfig, List[int]] = {}
        for d in ds.tolist():
            groups.setdefault(self._prediction_config(d, t), []).append(d)
        for group_config, members in groups.items():
            self._park(members, group_config, [self.sim_start] * len(members))

    def _park(
        self, members: List[int], config: ProRPConfig, instants: List[int]
    ) -> List[PredictedActivity]:
        """One ``predict_fleet`` call answering each member at its own
        instant over its login view as it is now (exact: every login a
        later trim deletes lies below every window Algorithm 4 reads, and
        a login in between moves the count the answer is parked under).
        Returns the answers in member order."""
        predictor = (
            self.fast_predictor
            if config is self.config or config == self.config
            else get_fast_predictor(config)
        )
        predictions = predictor.predict_fleet(
            [self.hist.login_array(d) for d in members], instants
        )
        for d, at, prediction in zip(members, instants, predictions):
            self._hold(d, at, config, prediction)
        return predictions

    # -- initialisation ----------------------------------------------------

    def start_all(self) -> None:
        """Settle the whole fleet at ``sim_start``: one batched prediction
        pass, then every database's ``start`` in index order."""
        self.seed_initial_predictions()
        for d in range(self.s.n):
            self.start(d)

    def start(self, d: int) -> None:
        """Port of ``_BaseActor.start``."""
        s = self.s
        if not self.preplaced:
            self.cluster.place(self.ids[d])
        self._schedule_first_maintenance(d)
        idx = s.session_idx[d]
        hi = s.sess_offsets[d + 1]
        while idx < hi and s.sess_ends[idx] <= self.sim_start:
            idx += 1
        s.session_idx[d] = idx
        if idx >= hi or s.created_at[d] > self.sim_start:
            # No session left, or not born yet: physically paused until a
            # first login (a direct set, no Figure 4 transition).
            s.phase[d] = PH_PHYSICAL
            if idx < hi:
                self._push(s.sess_starts[idx], EV_SESSION_START, d)
            return
        cur_start = s.sess_starts[idx]
        if cur_start <= self.sim_start:
            # Mid-session at simulation start: resumed and active.
            self._acquire_slot(d)
            s.active_since[d] = self.sim_start
            self._push(
                min(s.sess_ends[idx], self.sim_end), EV_SESSION_END, d
            )
        else:
            # Idle at simulation start: settle through the policy (the
            # reactive baseline pauses physically at once).  A settle
            # answer the refresh did not take (outage, open breaker,
            # injected fault, non-sliding bank arm) is dropped here.
            if self.proactive:
                self._handle_idle(d, self.sim_start)
            else:
                s.phase[d] = PH_PHYSICAL
            self._unpark(d)
            self._push(cur_start, EV_SESSION_START, d)

    # -- maintenance (Section 3.3) -----------------------------------------

    def _schedule_first_maintenance(self, d: int) -> None:
        s = self.s
        idx = s.maint_idx[d]
        hi = s.maint_offsets[d + 1]
        while idx < hi and s.maint_ends[idx] <= self.sim_start:
            idx += 1
        s.maint_idx[d] = idx
        if idx < hi:
            op_start = s.maint_starts[idx]
            if op_start < self.sim_end:
                self._push(max(op_start, self.sim_start), EV_MAINTENANCE, d)

    def _on_maintenance_start(self, d: int, now: int) -> None:
        """Port of ``_BaseActor._on_maintenance_start``."""
        s = self.s
        idx = s.maint_idx[d]
        op_end = s.maint_ends[idx]
        s.maint_idx[d] = idx + 1
        if idx + 1 < s.maint_offsets[d + 1]:
            nxt_start = s.maint_starts[idx + 1]
            if nxt_start < self.sim_end:
                self._push(nxt_start, EV_MAINTENANCE, d)
        s.maint_until[d] = max(
            s.maint_until[d], min(op_end, self.sim_end)
        )
        phase = s.phase[d]
        if phase == PH_PHYSICAL:
            self._acquire_slot(d)
            self._apply(d, LifecycleTransition.MAINTENANCE_RESUME, now)
            self.acct.record_workflow(d, now, "maintenance_resume")
            s.pause_start[d] = now
            s.pause_origin[d] = ORIGIN_MAINTENANCE
            s.maint_from_physical[d] = True
            self._schedule_wake(d, s.maint_until[d])
        elif phase == PH_LOGICAL:
            # Resources already up; keep the pending wake from reclaiming
            # them while the operation runs.
            if s.wake_at[d] != NONE_TS and s.wake_at[d] < s.maint_until[d]:
                self._schedule_wake(d, s.maint_until[d])
        # RESUMED / RESUMING: the operation rides on customer activity.

    def _close_maintenance_pause(self, d: int, now: int) -> bool:
        """End a maintenance pause's idle interval; True when the database
        was physically paused before the operation (it returns there)."""
        s = self.s
        from_physical = s.maint_from_physical[d]
        self.acct.add_idle(d, s.pause_start[d], now, "maintenance")
        s.pause_start[d] = NONE_TS if from_physical else now
        s.pause_origin[d] = ORIGIN_NONE
        s.maint_from_physical[d] = False
        return from_physical

    def _idle_under_maintenance(self, d: int, now: int) -> None:
        """A database going idle while a maintenance operation runs is
        held logically paused until the operation ends."""
        s = self.s
        if not s.holds_slot[d]:
            self._acquire_slot(d)
        self._apply(d, LifecycleTransition.IDLE_TO_LOGICAL, now)
        s.pause_start[d] = now
        s.pause_origin[d] = ORIGIN_MAINTENANCE
        self._schedule_wake(d, s.maint_until[d])

    # -- trace events ------------------------------------------------------

    def _schedule_next_session(self, d: int) -> None:
        s = self.s
        idx = s.session_idx[d] + 1
        s.session_idx[d] = idx
        if idx < s.sess_offsets[d + 1]:
            nxt_start = s.sess_starts[idx]
            if nxt_start < self.sim_end:
                self._push(nxt_start, EV_SESSION_START, d)

    def _on_session_start(self, d: int, now: int) -> None:
        """Port of ``_BaseActor._on_session_start``."""
        s = self.s
        self.hist.record(d, now, EventType.ACTIVITY_START)
        s.login_count[d] += 1
        if self.bank is not None:
            self.bank.observe_login(d, now)
        s.idle_since[d] = NONE_TS
        phase = s.phase[d]
        if phase == PH_LOGICAL:
            s.wake_epoch[d] += 1  # cancel the pending wake
            s.wake_at[d] = NONE_TS
            self._apply(d, LifecycleTransition.LOGICAL_TO_RESUMED, now)
            self.acct.record_login(d, now, served=True)
            self._settle_idle_interval(d, now, resumed_by_login=True)
            s.active_since[d] = now
        elif phase == PH_PHYSICAL:
            latency = self._acquire_slot(d)
            self._apply(d, LifecycleTransition.REACTIVE_RESUME_START, now)
            self.acct.record_login(
                d, now, served=False, faulted=s.fault_degraded[d]
            )
            self.acct.record_workflow(d, now, "reactive_resume")
            s.resume_started_at[d] = now
            s.deferred_session_end[d] = False
            self._push(now + latency, EV_RESUME_COMPLETE, d)
        elif phase == PH_RESUMING:
            self.acct.record_login(
                d, now, served=False, faulted=s.fault_degraded[d]
            )
            s.resume_started_at[d] = now
            s.deferred_session_end[d] = False
        else:
            raise SimulationError(
                f"{self._db_label(d)}: session start at t={now} while already "
                f"{STATE_FROM_CODE[phase].value}"
            )
        end = s.sess_ends[s.session_idx[d]]
        self._push(end if end < self.sim_end else self.sim_end, EV_SESSION_END, d)

    def _on_session_end(self, d: int, now: int) -> None:
        """Port of ``_BaseActor._on_session_end``."""
        s = self.s
        self.hist.record(d, now, EventType.ACTIVITY_END)
        phase = s.phase[d]
        if phase == PH_RESUMED:
            if s.active_since[d] != NONE_TS:
                self.acct.add_used(d, s.active_since[d], now)
                s.active_since[d] = NONE_TS
            self._schedule_next_session(d)
            self._handle_idle(d, now)
        elif phase == PH_RESUMING:
            if s.resume_started_at[d] != NONE_TS:
                self.acct.add_unavailable(d, s.resume_started_at[d], now)
                s.resume_started_at[d] = NONE_TS
            s.deferred_session_end[d] = True
            self._schedule_next_session(d)
        else:
            raise SimulationError(
                f"{self._db_label(d)}: session end at t={now} in state "
                f"{STATE_FROM_CODE[phase].value}"
            )

    def _on_resume_complete(self, d: int, now: int) -> None:
        """Port of ``_BaseActor._on_resume_complete``."""
        s = self.s
        if s.phase[d] != PH_RESUMING:
            return  # stale completion (e.g. past sim end clipping)
        self._apply(d, LifecycleTransition.REACTIVE_RESUME_COMPLETE, now)
        if s.resume_started_at[d] != NONE_TS:
            self.acct.add_unavailable(d, s.resume_started_at[d], now)
            s.resume_started_at[d] = NONE_TS
        if s.deferred_session_end[d]:
            s.deferred_session_end[d] = False
            self._handle_idle(d, now)
        else:
            s.active_since[d] = now

    # -- idle accounting ---------------------------------------------------

    def _settle_idle_interval(self, d: int, now: int, resumed_by_login: bool) -> None:
        s = self.s
        if s.pause_start[d] == NONE_TS:
            return
        pause_start = s.pause_start[d]
        if s.pause_origin[d] == ORIGIN_PREWARM:
            cause = "correct_proactive" if resumed_by_login else "wrong_proactive"
            self.acct.add_idle(d, pause_start, now, cause)
            self.acct.record_proactive_outcome(d, now, correct=resumed_by_login)
        elif s.pause_origin[d] == ORIGIN_MAINTENANCE:
            self.acct.add_idle(d, pause_start, now, "maintenance")
        else:
            self.acct.add_idle(d, pause_start, now, "logical_pause")
        s.pause_start[d] = NONE_TS
        s.pause_origin[d] = ORIGIN_NONE
        s.maint_from_physical[d] = False

    def _enter_physical_pause(
        self, d: int, now: int, transition: LifecycleTransition, pred_start: int
    ) -> None:
        self._apply(d, transition, now)
        self.meta.record_physical_pause(d, pred_start)
        self.acct.record_workflow(d, now, "physical_pause")
        if self.s.holds_slot[d]:
            self.cluster.release(self.ids[d])
            self.s.holds_slot[d] = False

    def finalize(self, d: int, sim_end: int) -> None:
        """Port of ``_BaseActor.finalize``."""
        s = self.s
        phase = s.phase[d]
        if phase == PH_RESUMED and s.active_since[d] != NONE_TS:
            self.acct.add_used(d, s.active_since[d], sim_end)
            s.active_since[d] = NONE_TS
        elif phase == PH_LOGICAL:
            self._settle_idle_interval(d, sim_end, resumed_by_login=False)
        elif phase == PH_RESUMING and s.resume_started_at[d] != NONE_TS:
            self.acct.add_unavailable(d, s.resume_started_at[d], sim_end)
            s.resume_started_at[d] = NONE_TS

    # -- policy: reactive baseline -----------------------------------------

    def _handle_idle_reactive(self, d: int, now: int) -> None:
        """Port of ``ReactiveActor._handle_idle``."""
        self.s.idle_since[d] = now
        if now < self.s.maint_until[d]:
            self._idle_under_maintenance(d, now)
            return
        self._apply(d, LifecycleTransition.IDLE_TO_LOGICAL, now)
        self.acct.record_workflow(d, now, "logical_pause")
        self.s.pause_start[d] = now
        self._schedule_wake(
            d, reactive_wake_time(now, self.config.logical_pause_s)
        )

    def _on_wake_reactive(self, d: int, now: int) -> None:
        """Port of ``ReactiveActor._on_wake``."""
        s = self.s
        s.wake_at[d] = NONE_TS  # the actor's `_wake_timer = None`
        if s.phase[d] != PH_LOGICAL:
            return  # stale timer
        if now < s.maint_until[d]:  # a running maintenance op holds it
            self._schedule_wake(d, s.maint_until[d])
            return
        after_maintenance = s.pause_origin[d] == ORIGIN_MAINTENANCE
        if after_maintenance and self._close_maintenance_pause(d, now):
            self._enter_physical_pause(
                d, now, LifecycleTransition.LOGICAL_TO_PHYSICAL, pred_start=0
            )
            s.idle_since[d] = NONE_TS
            return
        idle_since = s.idle_since[d] if s.idle_since[d] != NONE_TS else now
        if now < idle_since + self.config.logical_pause_s:
            # Maintenance segmented the pause: wait out the remainder of l.
            self._schedule_wake(d, idle_since + self.config.logical_pause_s)
            return
        self._settle_idle_interval(d, now, resumed_by_login=False)
        self._enter_physical_pause(
            d, now, LifecycleTransition.LOGICAL_TO_PHYSICAL, pred_start=0
        )
        s.idle_since[d] = NONE_TS

    # -- policy: proactive (Algorithm 1) -----------------------------------

    def _handle_idle_proactive(self, d: int, now: int) -> None:
        """Port of ``ProactiveActor._handle_idle``."""
        s = self.s
        s.idle_since[d] = now
        if now < s.maint_until[d]:
            self._idle_under_maintenance(d, now)
            return
        if prediction_expired(s.pred_end[d], now):
            self._refresh_prediction(d, now)
        start = s.pred_start[d]
        decision = decide_on_idle(now, s.old[d], start, self.config.logical_pause_s)
        if decision is IdleDecision.PHYSICAL_PAUSE:
            if not s.holds_slot[d]:
                # Initial settling: never held a slot; record state only.
                s.phase[d] = PH_PHYSICAL
                self.meta.record_physical_pause(d, start)
            else:
                self._enter_physical_pause(
                    d, now, LifecycleTransition.IDLE_TO_PHYSICAL, start
                )
        else:
            if not s.holds_slot[d]:
                self._acquire_slot(d)
            self._apply(d, LifecycleTransition.IDLE_TO_LOGICAL, now)
            self.acct.record_workflow(d, now, "logical_pause")
            s.pause_start[d] = now
            s.pause_origin[d] = ORIGIN_NONE
            self._schedule_wake(
                d,
                logical_pause_wake_time(
                    now,
                    now,
                    s.old[d],
                    start,
                    s.pred_end[d],
                    self.config.logical_pause_s,
                ),
            )

    def _on_wake_proactive(self, d: int, now: int) -> None:
        """Port of ``ProactiveActor._on_wake``."""
        s = self.s
        s.wake_at[d] = NONE_TS
        if s.phase[d] != PH_LOGICAL:
            return  # stale timer
        if now < s.maint_until[d]:  # a running maintenance op holds it
            self._schedule_wake(d, s.maint_until[d])
            return
        after_maintenance = s.pause_origin[d] == ORIGIN_MAINTENANCE
        if after_maintenance and self._close_maintenance_pause(d, now):
            self._enter_physical_pause(
                d,
                now,
                LifecycleTransition.LOGICAL_TO_PHYSICAL,
                s.pred_start[d],
            )
            s.idle_since[d] = NONE_TS
            return
        if s.idle_since[d] != NONE_TS:
            pause_start = s.idle_since[d]
        elif s.pause_start[d] != NONE_TS:
            pause_start = s.pause_start[d]
        else:
            pause_start = now
        self._refresh_prediction(d, now)
        start = s.pred_start[d]
        decision = decide_after_logical_pause(
            now, pause_start, s.old[d], start, self.config.logical_pause_s
        )
        if decision is IdleDecision.PHYSICAL_PAUSE:
            self._settle_idle_interval(d, now, resumed_by_login=False)
            self._enter_physical_pause(
                d, now, LifecycleTransition.LOGICAL_TO_PHYSICAL, start
            )
        else:
            self._schedule_wake(
                d,
                logical_pause_wake_time(
                    now,
                    pause_start,
                    s.old[d],
                    start,
                    s.pred_end[d],
                    self.config.logical_pause_s,
                ),
            )

    def prewarm(self, d: int, now: int) -> None:
        """Port of ``ProactiveActor.prewarm`` (Algorithm 5 line 8)."""
        s = self.s
        if s.phase[d] != PH_PHYSICAL:
            return  # raced with a reactive resume in the same tick
        self._acquire_slot(d)
        self._apply(d, LifecycleTransition.PROACTIVE_RESUME, now)
        self.acct.record_workflow(d, now, "proactive_resume")
        s.pause_start[d] = now
        s.pause_origin[d] = ORIGIN_PREWARM
        self._schedule_wake(
            d,
            logical_pause_wake_time(
                now,
                now,
                s.old[d],
                s.pred_start[d],
                s.pred_end[d],
                self.config.logical_pause_s,
            ),
        )

    # -- run loop ----------------------------------------------------------

    def schedule_resume_op(self, at: int, callback: Callable[[int], None]) -> None:
        self.on_resume_op = callback
        self._push(at, EV_RESUME_OP, -1)

    def _on_resume_op(self, d: int, now: int) -> None:
        self.on_resume_op(now)

    def run_until(self, end: int) -> int:
        """Mirror of ``EventQueue.run_until`` including its observability
        spans/counters; stale wakes are skipped like cancelled timers.
        Pops one instant's bucket at a time and dispatches it in schedule
        order."""
        executed = 0
        run_start = self._now
        # Indexed by event kind (the EV_* codes).
        handlers = (
            self._on_session_start,
            self._on_session_end,
            self._on_resume_complete,
            self._on_wake,
            self._on_maintenance_start,
            self._on_resume_op,
        )
        times = self._times
        buckets = self._buckets
        wake_epoch = self.s.wake_epoch
        obs_enabled = OBS.enabled
        while times and times[0] <= end:
            time = heapq.heappop(times)
            bucket = buckets.pop(time)
            self._now = time
            for kind, d, epoch in bucket:
                if kind == EV_WAKE and epoch != wake_epoch[d]:
                    continue  # cancelled wake: skipped, not dispatched
                if obs_enabled:
                    with OBS.tracer.span("engine.event", t=time):
                        handlers[kind](d, time)
                    OBS.metrics.counter("engine.events_dispatched").inc()
                else:
                    handlers[kind](d, time)
                executed += 1
        self._now = max(self._now, end)
        if obs_enabled and self._now > run_start:
            OBS.metrics.gauge("engine.sim_time").set(self._now)
            OBS.metrics.gauge("engine.events_per_sim_second").set(
                executed / (self._now - run_start)
            )
        self.events_dispatched += executed
        return executed


# ---------------------------------------------------------------------------
# The region driver both tiers run
# ---------------------------------------------------------------------------


def run_columnar_region(
    sessions: SessionArrays,
    maintenance: SessionArrays,
    created_at: np.ndarray,
    ids: Sequence[str],
    acct,
    policy: PolicyKind,
    config: ProRPConfig,
    settings,
    preplace: bool,
) -> Tuple[ColumnarRegionEngine, List[IterationRecord]]:
    """Run one region on the columnar engine, accounting through ``acct``.

    Mirrors ``region._simulate_region`` step for step (cluster and RNG
    construction, start order, resume-operation scheduling) through the
    same wiring helpers, but batches the settle-phase predictions.
    ``sessions`` and ``maintenance`` are CSR arrays in ``ids`` order;
    ``preplace`` places the fleet in one ``place_fleet`` pass.  Returns
    the finalized engine and Algorithm 5's records (row indices).
    """
    proactive = policy is PolicyKind.PROACTIVE
    cluster = _build_cluster(settings)
    if preplace:
        cluster.place_fleet(ids)
    fast_predictor = _build_fast_predictor(config, settings, proactive)
    state = ColumnarState(len(ids), *sessions, *maintenance, created_at)
    # sys.databases' state column is the engine's phase column.
    metadata = LeanMetadata(ids, state.np.phase)
    if not proactive:
        hist = NullHistory()
    elif fast_predictor is None:
        # The reference predictor is Algorithm 4 over the B-tree, so it
        # keeps one; the vectorised kernel reads the array store.
        hist = StoreHistory(
            _warm_history(sessions, settings.sim_start, config.history_days)
        )
    else:
        hist = LeanHistory(*sessions, settings.sim_start, config.history_days)
    engine = ColumnarRegionEngine(
        state,
        proactive=proactive,
        config=config,
        sim_start=settings.sim_start,
        sim_end=settings.eval_end,
        acct=acct,
        hist=hist,
        meta=metadata,
        cluster=cluster,
        ids=ids,
        fast_predictor=fast_predictor,
        breaker=_build_breaker(proactive),
        prorp_outages=settings.prorp_outages,
        collect_predictions=settings.collect_predictions,
        preplaced=preplace,
        bank=_build_bank(settings, config, proactive),
    )
    engine.start_all()

    iterations: List[IterationRecord] = []
    if proactive:
        iterations = _start_resume_loop(
            metadata, engine.prewarm, engine.schedule_resume_op, config, settings
        ).iterations

    engine.run_until(settings.eval_end)
    for d in range(state.n):
        engine.finalize(d, settings.eval_end)
    return engine, iterations


def simulate_region_columnar(
    traces: Sequence[ActivityTrace],
    policy,
    config: ProRPConfig,
    settings,
):
    """Run one region on the columnar engine with per-database ledgers,
    returning the same :class:`~repro.simulation.region.
    RegionSimulationResult` as the actors."""
    outcomes, maintenance_lists, sessions = _per_trace_setup(traces, settings)
    ids = [trace.database_id for trace in traces]
    created_at = np.fromiter(
        (trace.created_at for trace in traces), dtype=np.int64, count=len(traces)
    )
    engine, iterations = run_columnar_region(
        sessions,
        sessions_to_csr(maintenance_lists),
        created_at,
        ids,
        StoreAccounting(outcomes),
        policy,
        config,
        settings,
        preplace=False,
    )
    for record in iterations:
        record.database_ids = [ids[d] for d in record.database_ids]

    hist = engine.hist
    histories = {}
    if isinstance(hist, StoreHistory):
        histories = dict(zip(ids, hist.stores))
    elif isinstance(hist, LeanHistory):
        closed = engine.s.np.session_idx.tolist()
        histories = {
            database_id: LeanHistoryView(hist, d, closed[d])
            for d, database_id in enumerate(ids)
        }
    return RegionSimulationResult(
        policy=policy.value,
        settings=settings,
        config=config,
        outcomes=outcomes,
        resume_iterations=iterations,
        histories=histories,
        cluster_moves=engine.cluster.moves,
    )
