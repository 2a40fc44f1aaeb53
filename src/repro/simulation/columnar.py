"""Columnar (struct-of-arrays) region engine.

The per-actor simulator (:mod:`repro.simulation.actor`) keeps every
database's FSM state -- lifecycle phase, pause/resume timers, accounting
anchors, history cursors -- in a dedicated Python object, plus one bound
method closure per scheduled event.  That representation tops out around a
few hundred thousand databases before object overhead dominates.

This module re-hosts exactly the same state machine over numpy
struct-of-arrays owned by the region: one ``int8`` phase column, ``int64``
timer/anchor columns, bool flag columns, and CSR (offsets + flat values)
layouts for each database's sessions and maintenance operations.  Events
become flat heap tuples ``(time, seq, kind, db_index, epoch)`` instead of
closures; cancellable wake timers become an epoch counter per database
(a stale pop is skipped exactly like a cancelled :class:`~repro.simulation.
engine.Timer`).

The engine is a line-by-line port of the actor code paths: every schedule
call, RNG draw, fault-injector consult, policy decision, metadata write,
and accounting call happens in the same order with the same arguments, so
a columnar run is **byte-identical** to an actor run (the property suite
in ``tests/simulation/test_columnar.py`` proves it over seeded scenarios,
including armed fault plans).  Where the two representations must agree is
pinned down in ``docs/fleet_scale.md``.

Storage/accounting sit behind three small seams (history, metadata,
accounting) so the same handlers drive two backends:

* the **full** backend in this module uses the real per-database
  :class:`~repro.storage.history.HistoryStore`, the region
  :class:`~repro.storage.metadata.MetadataStore`, and
  :class:`~repro.simulation.results.DatabaseOutcome` objects -- this is
  what :func:`simulate_region_columnar` runs and what the equivalence
  suite compares against the actors;
* the **lean** backend in :mod:`repro.simulation.fleet` replaces them with
  region-level arrays (cursor-based history views, columnar metadata,
  scalar accounting) for million-database runs.

:class:`ActorView` preserves the actor API as a thin read view for tests,
observability, and debugging.
"""

from __future__ import annotations

import heapq
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
from repro.core.resume_service import ProactiveResumeOperation
from repro.errors import FaultInjectedError, SimulationError
from repro.faults.resilience import CircuitBreaker
from repro.faults.runtime import FAULTS
from repro.observability.runtime import OBS
from repro.simulation.actor import PREDICTOR_FAULT_POINT
from repro.simulation.region import (
    RegionSimulationResult,
    _build_bank,
    _build_breaker,
    _build_cluster,
    _build_fast_predictor,
    _build_kpi_stream,
    _per_trace_setup,
    _start_resume_loop,
)
from repro.simulation.results import DatabaseOutcome
from repro.storage.history import HistoryStore
from repro.storage.metadata import DatabaseState, MetadataStore
from repro.types import (
    ActivityTrace,
    EventType,
    PredictedActivity,
    Session,
)

# ---------------------------------------------------------------------------
# Struct-of-arrays layout constants (documented in docs/fleet_scale.md)
# ---------------------------------------------------------------------------

#: Lifecycle phase codes (shared with repro.core.lifecycle.STATE_CODES).
PH_RESUMED = STATE_CODES[LifecycleState.RESUMED]
PH_LOGICAL = STATE_CODES[LifecycleState.LOGICALLY_PAUSED]
PH_PHYSICAL = STATE_CODES[LifecycleState.PHYSICALLY_PAUSED]
PH_RESUMING = STATE_CODES[LifecycleState.RESUMING]

#: Event kinds of the flat heap tuples.
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

#: Integer edge table of Figure 4: transition -> (from_code, to_code).
_EDGE_CODES: Dict[LifecycleTransition, Tuple[int, int]] = transition_edge_codes()

#: Metadata state enums by phase code (full backend writes these).
_META_STATE = {
    PH_RESUMED: DatabaseState.RESUMED,
    PH_LOGICAL: DatabaseState.LOGICAL_PAUSE,
    PH_PHYSICAL: DatabaseState.PHYSICAL_PAUSE,
    PH_RESUMING: DatabaseState.RESUMING,
}


def sessions_to_csr(
    session_lists: Sequence[Sequence[Session]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-database session lists into (offsets, starts, ends).

    ``offsets`` has length D+1; database ``d`` owns the half-open slice
    ``[offsets[d], offsets[d+1])`` of the flat arrays.
    """
    counts = np.fromiter(
        (len(sessions) for sessions in session_lists),
        dtype=np.int64,
        count=len(session_lists),
    )
    offsets = np.zeros(len(session_lists) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    starts = np.empty(total, dtype=np.int64)
    ends = np.empty(total, dtype=np.int64)
    pos = 0
    for sessions in session_lists:
        for session in sessions:
            starts[pos] = session.start
            ends[pos] = session.end
            pos += 1
    return offsets, starts, ends


def first_relevant_indices(
    offsets: np.ndarray, ends: np.ndarray, sim_start: int
) -> np.ndarray:
    """Vectorised equivalent of the actors' skip-while loop: for each
    database, the global index of its first session (or maintenance op)
    with ``end > sim_start``; equals ``offsets[d+1]`` when none remain."""
    if len(ends) == 0:
        return offsets[:-1].copy()
    # Within each database's sorted slice, count the prefix of entries
    # with end <= sim_start.
    skipped = ends <= sim_start
    cum = np.concatenate(([0], np.cumsum(skipped)))
    return offsets[:-1] + (cum[offsets[1:]] - cum[offsets[:-1]])


class ColumnarState:
    """The struct-of-arrays FSM state of one region's fleet.

    One row per database; every column is a flat numpy array.  This is the
    exact per-actor state of :class:`repro.simulation.actor._BaseActor`
    (plus the proactive prediction fields), transposed.
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
        # Trace replay (CSR) -----------------------------------------------
        self.sess_offsets = sess_offsets
        self.sess_starts = sess_starts
        self.sess_ends = sess_ends
        self.maint_offsets = maint_offsets
        self.maint_starts = maint_starts
        self.maint_ends = maint_ends
        self.created_at = created_at
        # FSM --------------------------------------------------------------
        self.phase = np.full(n, PH_RESUMED, dtype=np.int8)
        self.session_idx = sess_offsets[:-1].astype(np.int64).copy()
        self.maint_idx = maint_offsets[:-1].astype(np.int64).copy()
        self.maint_until = np.zeros(n, dtype=np.int64)
        self.maint_from_physical = np.zeros(n, dtype=bool)
        # Timers: a wake is live iff wake_at != NONE_TS; wake_epoch stamps
        # heap entries so stale pops are skipped (the cancelled-Timer path).
        self.wake_epoch = np.zeros(n, dtype=np.int64)
        self.wake_at = np.full(n, NONE_TS, dtype=np.int64)
        # Accounting anchors (the actor's Optional[int] fields).
        self.active_since = np.full(n, NONE_TS, dtype=np.int64)
        self.pause_start = np.full(n, NONE_TS, dtype=np.int64)
        self.pause_origin = np.full(n, ORIGIN_NONE, dtype=np.int8)
        self.resume_started_at = np.full(n, NONE_TS, dtype=np.int64)
        self.idle_since = np.full(n, NONE_TS, dtype=np.int64)
        self.deferred_session_end = np.zeros(n, dtype=bool)
        self.holds_slot = np.zeros(n, dtype=bool)
        self.fault_degraded = np.zeros(n, dtype=bool)
        # Prediction state (proactive only).
        self.old = np.zeros(n, dtype=bool)
        self.pred_start = np.zeros(n, dtype=np.int64)
        self.pred_end = np.zeros(n, dtype=np.int64)
        self.pred_conf = np.zeros(n, dtype=np.float64)
        # Lifecycle monotonicity guard (Lifecycle._last_transition_time).
        self.last_transition = np.full(n, -1, dtype=np.int64)

    def nbytes(self) -> int:
        """Total array bytes (reported by the fleet-scale benchmark)."""
        return sum(
            arr.nbytes
            for arr in vars(self).values()
            if isinstance(arr, np.ndarray)
        )


# ---------------------------------------------------------------------------
# Full backends: the real stores, one per database (equivalence mode)
# ---------------------------------------------------------------------------


class StoreAccounting:
    """Accounting seam over real :class:`DatabaseOutcome` objects.

    ``stream`` (a :class:`repro.observability.slo.KpiStream`) mirrors the
    KPI events into windowed SLO series as they happen; it only writes
    metrics, so the outcome ledgers stay byte-identical with it attached.
    """

    def __init__(self, outcomes: List[DatabaseOutcome], stream=None):
        self.outcomes = outcomes
        self.stream = stream

    def add_used(self, d: int, start: int, end: int) -> None:
        self.outcomes[d].add_used(start, end)
        if self.stream is not None:
            self.stream.used(start, end)

    def add_unavailable(self, d: int, start: int, end: int) -> None:
        self.outcomes[d].add_unavailable(start, end)
        if self.stream is not None:
            self.stream.unavailable(start, end)

    def add_idle(self, d: int, start: int, end: int, cause: str) -> None:
        self.outcomes[d].add_idle(start, end, cause)
        if self.stream is not None:
            self.stream.idle(start, end)

    def record_login(
        self, d: int, t: int, served: bool, faulted: bool = False
    ) -> None:
        self.outcomes[d].record_login(t, served=served, faulted=faulted)
        if self.stream is not None:
            self.stream.login(t, served, faulted)

    def record_workflow(self, d: int, t: int, kind: str) -> None:
        self.outcomes[d].record_workflow(t, kind)
        if self.stream is not None:
            self.stream.workflow(t, kind)

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


class StoreMetadata:
    """Metadata seam over the real region :class:`MetadataStore`."""

    def __init__(self, metadata: MetadataStore, ids: Sequence[str]):
        self.metadata = metadata
        self.ids = ids

    def register(self, d: int, created_at: int, node_id: str) -> None:
        self.metadata.register(
            self.ids[d], created_at=created_at, node_id=node_id
        )

    def set_state(self, d: int, phase_code: int) -> None:
        self.metadata.set_state(self.ids[d], _META_STATE[phase_code])

    def record_physical_pause(self, d: int, pred_start: int) -> None:
        self.metadata.record_physical_pause(self.ids[d], pred_start)

    def set_node(self, d: int, node_id: str) -> None:
        self.metadata.set_node(self.ids[d], node_id)


class StoreCluster:
    """Cluster seam: real :class:`Cluster` keyed by database id strings."""

    def __init__(self, cluster: Cluster, ids: Sequence[str]):
        self.cluster = cluster
        self.ids = ids

    def place(self, d: int) -> str:
        return self.cluster.place(self.ids[d]).node_id

    def allocate(self, d: int) -> Tuple[int, str]:
        outcome = self.cluster.allocate(self.ids[d])
        return outcome.latency_s, outcome.node_id

    def release(self, d: int) -> None:
        self.cluster.release(self.ids[d])


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ColumnarRegionEngine:
    """Event-driven FSM over struct-of-arrays state.

    A mechanical port of :class:`repro.simulation.actor._BaseActor` /
    :class:`ReactiveActor` / :class:`ProactiveActor` plus the region loop
    of ``_simulate_region``: every schedule call consumes one sequence
    number in the same order, every cluster allocation draws the shared
    RNG in the same order, and every fault point is consulted in the same
    order as the actor path, which is what makes the two byte-identical.
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
        cluster: StoreCluster,
        fast_predictor: Optional[FastPredictor] = None,
        breaker: Optional[CircuitBreaker] = None,
        prorp_outages: Sequence[Tuple[int, int]] = (),
        collect_predictions: bool = False,
        preplaced_nodes: Optional[Sequence[str]] = None,
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
        self.cluster = cluster
        self.fast_predictor = fast_predictor
        self.breaker = breaker
        self.prorp_outages = tuple(prorp_outages)
        self.collect_predictions = collect_predictions
        #: Node ids from a bulk ``place_fleet`` (lean mode); None means
        #: ``_start`` places each database itself (actor parity).
        self.preplaced_nodes = preplaced_nodes
        #: Region-shared predictor bank (repro.tuning.bank); None keeps the
        #: paper's single sliding-window path.  A sliding-only bank is a
        #: pure delegate, byte-identical to None.
        self.bank = bank
        self._now = sim_start
        self._seq = 0
        self._heap: List[Tuple[int, int, int, int, int]] = []
        #: Dispatched after the heap pops an EV_RESUME_OP entry; installed
        #: by ``schedule_resume_op``.
        self.on_resume_op: Optional[Callable[[int], None]] = None
        #: Settle-batch answers ``d -> (config, prediction)``: parked by
        #: ``seed_initial_predictions``, taken (or dropped) inside ``start``.
        self._settled: Dict[int, Tuple[ProRPConfig, PredictedActivity]] = {}
        self.events_dispatched = 0

    # -- scheduling --------------------------------------------------------

    @property
    def now(self) -> int:
        return self._now

    def _push(self, time: int, kind: int, d: int, epoch: int = 0) -> None:
        """Mirror of ``EventQueue.schedule(_oneshot)``: consumes exactly
        one sequence number, so same-time ordering matches the actors."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time} before now={self._now}"
            )
        heapq.heappush(self._heap, (int(time), self._seq, kind, d, epoch))
        self._seq += 1

    def _cancel_wake(self, d: int) -> None:
        self.s.wake_epoch[d] += 1
        self.s.wake_at[d] = NONE_TS

    def _schedule_wake(self, d: int, at: int) -> None:
        self._cancel_wake(d)
        at = max(at, self._now + 1)
        if at < self.sim_end:
            self.s.wake_at[d] = at
            self._push(at, EV_WAKE, d, int(self.s.wake_epoch[d]))

    # -- lifecycle ---------------------------------------------------------

    def _apply(self, d: int, transition: LifecycleTransition, now: int) -> None:
        """``Lifecycle.apply`` over the phase column: same validation,
        same observability counter, same span attributes."""
        from_code, to_code = _EDGE_CODES[transition]
        if self.s.phase[d] != from_code:
            raise SimulationError(
                f"{self._db_label(d)}: illegal transition {transition.value} "
                f"from {STATE_FROM_CODE[self.s.phase[d]].value} at t={now} "
                f"(requires {STATE_FROM_CODE[from_code].value})"
            )
        if now < self.s.last_transition[d]:
            raise SimulationError(
                f"{self._db_label(d)}: transition at t={now} is before the "
                f"previous transition at t={int(self.s.last_transition[d])}"
            )
        if OBS.enabled:
            OBS.metrics.counter(f"lifecycle.transition.{transition.value}").inc()
            span = OBS.tracer.current_span
            if span is not None:
                span.set_attribute("transition", transition.value)
                span.set_attribute("db", self._db_label(d))
        self.s.phase[d] = to_code
        self.s.last_transition[d] = now

    def _db_label(self, d: int) -> str:
        ids = getattr(self.meta, "ids", None)
        return ids[d] if ids is not None else f"db[{d}]"

    # -- cluster slots -----------------------------------------------------

    def _acquire_slot(self, d: int) -> int:
        if self.s.holds_slot[d]:
            raise SimulationError(f"{self._db_label(d)}: slot already held")
        latency, node_id = self.cluster.allocate(d)
        self.s.holds_slot[d] = True
        self.meta.set_node(d, node_id)
        return latency

    def _release_slot(self, d: int) -> None:
        if not self.s.holds_slot[d]:
            raise SimulationError(f"{self._db_label(d)}: no slot to release")
        self.cluster.release(d)
        self.s.holds_slot[d] = False

    # -- prediction helpers ------------------------------------------------

    def _next_activity(self, d: int) -> PredictedActivity:
        return PredictedActivity(
            int(self.s.pred_start[d]),
            int(self.s.pred_end[d]),
            float(self.s.pred_conf[d]),
        )

    def _set_next_activity(self, d: int, prediction: PredictedActivity) -> None:
        self.s.pred_start[d] = prediction.start
        self.s.pred_end[d] = prediction.end
        self.s.pred_conf[d] = prediction.confidence

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
        """Port of ``ProactiveActor._refresh_prediction``."""
        s = self.s
        if self._prorp_down(now):
            s.old[d] = False
            self._set_next_activity(d, PredictedActivity.none())
            return
        if self.breaker is not None and not self.breaker.allow(now):
            s.old[d] = False
            self._set_next_activity(d, PredictedActivity.none())
            s.fault_degraded[d] = True
            return
        s.old[d] = self.hist.trim(d, self.config.history_days, now)
        if not s.old[d]:
            self._set_next_activity(d, PredictedActivity.none())
            s.fault_degraded[d] = False
            return
        try:
            self._predict(d, now)
        except FaultInjectedError:
            if self.breaker is not None:
                self.breaker.record_failure(now)
            s.old[d] = False
            self._set_next_activity(d, PredictedActivity.none())
            s.fault_degraded[d] = True
            return
        if self.breaker is not None:
            self.breaker.record_success(now)
        s.fault_degraded[d] = False
        if self.collect_predictions:
            self.acct.record_prediction(
                d,
                now,
                int(s.pred_start[d]),
                int(s.pred_end[d]),
                float(s.pred_conf[d]),
            )

    def _predict(self, d: int, now: int) -> None:
        """Port of ``ProactiveActor._predict`` (the latency-measuring
        branch is not ported: the region routes that mode to the actors)."""
        if FAULTS.enabled and FAULTS.injector.should_fire(
            PREDICTOR_FAULT_POINT, now
        ):
            raise FaultInjectedError(
                PREDICTOR_FAULT_POINT, "injected: predictor backend failure"
            )
        config = self._prediction_config(d, now)
        if self.bank is not None:
            self._set_next_activity(
                d,
                self.bank.predict(
                    d,
                    now,
                    lambda: self.hist.login_array(d),
                    lambda: self._predict_sliding(d, config, now),
                ),
            )
            return
        self._set_next_activity(d, self._predict_sliding(d, config, now))

    def _predict_sliding(
        self, d: int, config: ProRPConfig, now: int
    ) -> PredictedActivity:
        """The paper's sliding-window path (Algorithm 4).  At ``sim_start``
        a parked settle-batch answer for the same knobs replaces the scan;
        it is taken only here, after the outage, breaker, trim and fault
        checks of the refresh have all run for this database."""
        if self.fast_predictor is None:
            return predict_next_activity(self.hist.store(d), config, now)
        if now == self.sim_start:
            settled = self._settled.pop(d, None)
            if settled is not None and settled[0] == config:
                HOT_PATH.cache_hits += 1
                return settled[1]
        if config is self.config:
            predictor = self.fast_predictor
        else:
            predictor = get_fast_predictor(config)
        HOT_PATH.cache_misses += 1
        return predictor.predict(self.hist.login_array(d), now)

    # -- settle-phase batching ---------------------------------------------

    def _settle_request(self, d: int) -> Optional[ProRPConfig]:
        """The Algorithm-4 configuration ``start(d)`` will predict with at
        ``sim_start``, or None when it will not reach the predictor: it
        does only for a born database idle between sessions whose history
        is old.  Performs the same trim the refresh would (trimming twice
        at one instant is idempotent).  Deliberately consults neither the
        circuit breaker (``allow`` can mutate it) nor the fault injector:
        the real refresh inside ``start`` does both, in unchanged order."""
        s = self.s
        index = int(s.sess_offsets[d])
        hi = int(s.sess_offsets[d + 1])
        while index < hi and s.sess_ends[index] <= self.sim_start:
            index += 1
        if index >= hi:
            return None  # start() goes to physical pause, no prediction
        if s.created_at[d] > self.sim_start:
            return None  # not born yet: physical pause until first login
        if s.sess_starts[index] <= self.sim_start:
            return None  # mid-session: active, no idle settling
        if not self.hist.trim(d, self.config.history_days, self.sim_start):
            return None  # new database: refresh skips the predictor
        return self._prediction_config(d, self.sim_start)

    def seed_initial_predictions(self) -> None:
        """Batch the settle-phase predictions into one fleet evaluation.

        Every database that is idle-with-history at ``sim_start`` runs the
        same prediction at the same instant inside ``start(d)``.  Here
        those D single-database Algorithm-4 scans become one
        :meth:`FastPredictor.predict_fleet` call per distinct configuration
        (adaptive seasonality can split the fleet), parked by index for
        ``_predict_sliding`` to take.
        """
        if self.fast_predictor is None or self.sim_start <= 0:
            return
        if self._prorp_down(self.sim_start):
            return  # every refresh degrades to reactive without predicting
        groups: Dict[ProRPConfig, List[int]] = {}
        for d in range(self.s.n):
            request = self._settle_request(d)
            if request is not None:
                groups.setdefault(request, []).append(d)
        for group_config, members in groups.items():
            predictor = (
                self.fast_predictor
                if group_config == self.config
                else get_fast_predictor(group_config)
            )
            predictions = predictor.predict_fleet(
                [self.hist.login_array(d) for d in members], self.sim_start
            )
            for d, prediction in zip(members, predictions):
                self._settled[d] = (group_config, prediction)

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
        if self.preplaced_nodes is not None:
            node_id = self.preplaced_nodes[d]
        else:
            node_id = self.cluster.place(d)
        self.meta.register(d, int(s.created_at[d]), node_id)
        self._schedule_first_maintenance(d)
        idx = int(s.session_idx[d])
        hi = int(s.sess_offsets[d + 1])
        while idx < hi and s.sess_ends[idx] <= self.sim_start:
            idx += 1
        s.session_idx[d] = idx
        if idx >= hi:
            self._enter_initial_physical_pause(d)
            return
        cur_start = int(s.sess_starts[idx])
        if s.created_at[d] > self.sim_start:
            # Not born yet: physically paused until its first login.
            self._enter_initial_physical_pause(d)
            self._push(cur_start, EV_SESSION_START, d)
            return
        if cur_start <= self.sim_start:
            # Mid-session at simulation start: resumed and active.
            self._acquire_slot(d)
            self.meta.set_state(d, PH_RESUMED)
            s.active_since[d] = self.sim_start
            self._push(
                min(int(s.sess_ends[idx]), self.sim_end), EV_SESSION_END, d
            )
        else:
            # Idle at simulation start: settle through the policy.  A
            # settle answer the refresh did not take (outage, open breaker,
            # injected fault, non-sliding bank arm) is dropped here.
            self._enter_initial_idle(d)
            self._settled.pop(d, None)
            self._push(cur_start, EV_SESSION_START, d)

    def _enter_initial_physical_pause(self, d: int) -> None:
        self.meta.set_state(d, PH_PHYSICAL)
        self.s.phase[d] = PH_PHYSICAL  # direct set: no Figure 4 transition

    def _enter_initial_idle(self, d: int) -> None:
        if self.proactive:
            self._handle_idle(d, self.sim_start)
        else:
            self._enter_initial_physical_pause(d)

    # -- maintenance (Section 3.3) -----------------------------------------

    def _schedule_first_maintenance(self, d: int) -> None:
        s = self.s
        idx = int(s.maint_idx[d])
        hi = int(s.maint_offsets[d + 1])
        while idx < hi and s.maint_ends[idx] <= self.sim_start:
            idx += 1
        s.maint_idx[d] = idx
        if idx < hi:
            op_start = int(s.maint_starts[idx])
            if op_start < self.sim_end:
                self._push(max(op_start, self.sim_start), EV_MAINTENANCE, d)

    def _on_maintenance_start(self, d: int, now: int) -> None:
        """Port of ``_BaseActor._on_maintenance_start``."""
        s = self.s
        idx = int(s.maint_idx[d])
        op_end = int(s.maint_ends[idx])
        s.maint_idx[d] = idx + 1
        if idx + 1 < s.maint_offsets[d + 1]:
            nxt_start = int(s.maint_starts[idx + 1])
            if nxt_start < self.sim_end:
                self._push(nxt_start, EV_MAINTENANCE, d)
        s.maint_until[d] = max(
            int(s.maint_until[d]), min(op_end, self.sim_end)
        )
        phase = s.phase[d]
        if phase == PH_PHYSICAL:
            self._acquire_slot(d)
            self._apply(d, LifecycleTransition.MAINTENANCE_RESUME, now)
            self.meta.set_state(d, PH_LOGICAL)
            self.acct.record_workflow(d, now, "maintenance_resume")
            s.pause_start[d] = now
            s.pause_origin[d] = ORIGIN_MAINTENANCE
            s.maint_from_physical[d] = True
            self._schedule_wake(d, int(s.maint_until[d]))
        elif phase == PH_LOGICAL:
            # Resources already up; keep the pending wake from reclaiming
            # them while the operation runs.
            if s.wake_at[d] != NONE_TS and s.wake_at[d] < s.maint_until[d]:
                self._schedule_wake(d, int(s.maint_until[d]))
        # RESUMED / RESUMING: the operation rides on customer activity.

    def _maintenance_hold(self, d: int, now: int) -> bool:
        if now < self.s.maint_until[d]:
            self._schedule_wake(d, int(self.s.maint_until[d]))
            return True
        return False

    def _close_maintenance_pause(self, d: int, now: int) -> bool:
        s = self.s
        if s.pause_origin[d] != ORIGIN_MAINTENANCE:
            return False
        from_physical = bool(s.maint_from_physical[d])
        self.acct.add_idle(d, int(s.pause_start[d]), now, "maintenance")
        if from_physical:
            s.pause_start[d] = NONE_TS
            s.pause_origin[d] = ORIGIN_NONE
            s.maint_from_physical[d] = False
            return True
        s.pause_start[d] = now
        s.pause_origin[d] = ORIGIN_NONE
        s.maint_from_physical[d] = False
        return False

    def _begin_idle(self, d: int, now: int) -> bool:
        s = self.s
        s.idle_since[d] = now
        if now >= s.maint_until[d]:
            return False
        if not s.holds_slot[d]:
            self._acquire_slot(d)
        self._apply(d, LifecycleTransition.IDLE_TO_LOGICAL, now)
        self.meta.set_state(d, PH_LOGICAL)
        s.pause_start[d] = now
        s.pause_origin[d] = ORIGIN_MAINTENANCE
        self._schedule_wake(d, int(s.maint_until[d]))
        return True

    # -- trace events ------------------------------------------------------

    def _schedule_next_session(self, d: int) -> None:
        s = self.s
        idx = int(s.session_idx[d]) + 1
        s.session_idx[d] = idx
        if idx < s.sess_offsets[d + 1]:
            nxt_start = int(s.sess_starts[idx])
            if nxt_start < self.sim_end:
                self._push(nxt_start, EV_SESSION_START, d)

    def _on_session_start(self, d: int, now: int) -> None:
        """Port of ``_BaseActor._on_session_start``."""
        s = self.s
        self.hist.record(d, now, EventType.ACTIVITY_START)
        if self.bank is not None:
            self.bank.observe_login(d, now)
        s.idle_since[d] = NONE_TS
        phase = s.phase[d]
        if phase == PH_LOGICAL:
            self._cancel_wake(d)
            self._apply(d, LifecycleTransition.LOGICAL_TO_RESUMED, now)
            self.meta.set_state(d, PH_RESUMED)
            self.acct.record_login(d, now, served=True)
            self._settle_idle_interval(d, now, resumed_by_login=True)
            s.active_since[d] = now
            end = min(int(s.sess_ends[s.session_idx[d]]), self.sim_end)
            self._push(end, EV_SESSION_END, d)
        elif phase == PH_PHYSICAL:
            latency = self._acquire_slot(d)
            self._apply(d, LifecycleTransition.REACTIVE_RESUME_START, now)
            self.meta.set_state(d, PH_RESUMING)
            self.acct.record_login(
                d, now, served=False, faulted=bool(s.fault_degraded[d])
            )
            self.acct.record_workflow(d, now, "reactive_resume")
            s.resume_started_at[d] = now
            s.deferred_session_end[d] = False
            self._push(now + latency, EV_RESUME_COMPLETE, d)
            end = min(int(s.sess_ends[s.session_idx[d]]), self.sim_end)
            self._push(end, EV_SESSION_END, d)
        elif phase == PH_RESUMING:
            self.acct.record_login(
                d, now, served=False, faulted=bool(s.fault_degraded[d])
            )
            s.resume_started_at[d] = now
            s.deferred_session_end[d] = False
            end = min(int(s.sess_ends[s.session_idx[d]]), self.sim_end)
            self._push(end, EV_SESSION_END, d)
        else:
            raise SimulationError(
                f"{self._db_label(d)}: session start at t={now} while already "
                f"{STATE_FROM_CODE[phase].value}"
            )

    def _on_session_end(self, d: int, now: int) -> None:
        """Port of ``_BaseActor._on_session_end``."""
        s = self.s
        self.hist.record(d, now, EventType.ACTIVITY_END)
        phase = s.phase[d]
        if phase == PH_RESUMED:
            if s.active_since[d] != NONE_TS:
                self.acct.add_used(d, int(s.active_since[d]), now)
                s.active_since[d] = NONE_TS
            self._schedule_next_session(d)
            self._handle_idle(d, now)
        elif phase == PH_RESUMING:
            if s.resume_started_at[d] != NONE_TS:
                self.acct.add_unavailable(d, int(s.resume_started_at[d]), now)
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
        self.meta.set_state(d, PH_RESUMED)
        if s.resume_started_at[d] != NONE_TS:
            self.acct.add_unavailable(d, int(s.resume_started_at[d]), now)
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
        pause_start = int(s.pause_start[d])
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
            self._release_slot(d)

    def finalize(self, d: int, sim_end: int) -> None:
        """Port of ``_BaseActor.finalize``."""
        s = self.s
        phase = s.phase[d]
        if phase == PH_RESUMED and s.active_since[d] != NONE_TS:
            self.acct.add_used(d, int(s.active_since[d]), sim_end)
            s.active_since[d] = NONE_TS
        elif phase == PH_LOGICAL:
            self._settle_idle_interval(d, sim_end, resumed_by_login=False)
        elif phase == PH_RESUMING and s.resume_started_at[d] != NONE_TS:
            self.acct.add_unavailable(d, int(s.resume_started_at[d]), sim_end)
            s.resume_started_at[d] = NONE_TS

    # -- policy: reactive baseline -----------------------------------------

    def _handle_idle_reactive(self, d: int, now: int) -> None:
        """Port of ``ReactiveActor._handle_idle``."""
        if self._begin_idle(d, now):
            return  # held by a running maintenance operation
        self._apply(d, LifecycleTransition.IDLE_TO_LOGICAL, now)
        self.meta.set_state(d, PH_LOGICAL)
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
        if self._maintenance_hold(d, now):
            return
        if self._close_maintenance_pause(d, now):
            self._enter_physical_pause(
                d, now, LifecycleTransition.LOGICAL_TO_PHYSICAL, pred_start=0
            )
            s.idle_since[d] = NONE_TS
            return
        idle_since = int(s.idle_since[d]) if s.idle_since[d] != NONE_TS else now
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
        if self._begin_idle(d, now):
            return  # held by a running maintenance operation
        if prediction_expired(self._next_activity(d), now):
            self._refresh_prediction(d, now)
        next_activity = self._next_activity(d)
        decision = decide_on_idle(
            now, bool(s.old[d]), next_activity, self.config.logical_pause_s
        )
        if decision is IdleDecision.PHYSICAL_PAUSE:
            if not s.holds_slot[d]:
                # Initial settling: never held a slot; record state only.
                s.phase[d] = PH_PHYSICAL
                self.meta.record_physical_pause(d, next_activity.start)
            else:
                self._enter_physical_pause(
                    d, now, LifecycleTransition.IDLE_TO_PHYSICAL,
                    next_activity.start,
                )
        else:
            if not s.holds_slot[d]:
                self._acquire_slot(d)
            self._apply(d, LifecycleTransition.IDLE_TO_LOGICAL, now)
            self.meta.set_state(d, PH_LOGICAL)
            self.acct.record_workflow(d, now, "logical_pause")
            s.pause_start[d] = now
            s.pause_origin[d] = ORIGIN_NONE
            self._schedule_wake(
                d,
                logical_pause_wake_time(
                    now,
                    now,
                    bool(s.old[d]),
                    next_activity,
                    self.config.logical_pause_s,
                ),
            )

    def _on_wake_proactive(self, d: int, now: int) -> None:
        """Port of ``ProactiveActor._on_wake``."""
        s = self.s
        s.wake_at[d] = NONE_TS
        if s.phase[d] != PH_LOGICAL:
            return  # stale timer
        if self._maintenance_hold(d, now):
            return
        if self._close_maintenance_pause(d, now):
            self._enter_physical_pause(
                d,
                now,
                LifecycleTransition.LOGICAL_TO_PHYSICAL,
                int(s.pred_start[d]),
            )
            s.idle_since[d] = NONE_TS
            return
        if s.idle_since[d] != NONE_TS:
            pause_start = int(s.idle_since[d])
        elif s.pause_start[d] != NONE_TS:
            pause_start = int(s.pause_start[d])
        else:
            pause_start = now
        self._refresh_prediction(d, now)
        next_activity = self._next_activity(d)
        decision = decide_after_logical_pause(
            now,
            pause_start,
            bool(s.old[d]),
            next_activity,
            self.config.logical_pause_s,
        )
        if decision is IdleDecision.PHYSICAL_PAUSE:
            self._settle_idle_interval(d, now, resumed_by_login=False)
            self._enter_physical_pause(
                d, now, LifecycleTransition.LOGICAL_TO_PHYSICAL,
                next_activity.start,
            )
        else:
            self._schedule_wake(
                d,
                logical_pause_wake_time(
                    now,
                    pause_start,
                    bool(s.old[d]),
                    next_activity,
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
        self.meta.set_state(d, PH_LOGICAL)
        self.acct.record_workflow(d, now, "proactive_resume")
        s.pause_start[d] = now
        s.pause_origin[d] = ORIGIN_PREWARM
        self._schedule_wake(
            d,
            logical_pause_wake_time(
                now,
                now,
                bool(s.old[d]),
                self._next_activity(d),
                self.config.logical_pause_s,
            ),
        )

    def _handle_idle(self, d: int, now: int) -> None:
        if self.proactive:
            self._handle_idle_proactive(d, now)
        else:
            self._handle_idle_reactive(d, now)

    # -- run loop ----------------------------------------------------------

    def schedule_resume_op(self, at: int, callback: Callable[[int], None]) -> None:
        self.on_resume_op = callback
        self._push(at, EV_RESUME_OP, -1)

    def _dispatch(self, kind: int, d: int, now: int) -> None:
        if kind == EV_SESSION_START:
            self._on_session_start(d, now)
        elif kind == EV_SESSION_END:
            self._on_session_end(d, now)
        elif kind == EV_RESUME_COMPLETE:
            self._on_resume_complete(d, now)
        elif kind == EV_WAKE:
            if self.proactive:
                self._on_wake_proactive(d, now)
            else:
                self._on_wake_reactive(d, now)
        elif kind == EV_MAINTENANCE:
            self._on_maintenance_start(d, now)
        else:  # EV_RESUME_OP
            assert self.on_resume_op is not None
            self.on_resume_op(now)

    def run_until(self, end: int) -> int:
        """Mirror of ``EventQueue.run_until`` including its observability
        spans/counters; stale wakes are skipped like cancelled timers."""
        executed = 0
        run_start = self._now
        heap = self._heap
        wake_epoch = self.s.wake_epoch
        obs_enabled = OBS.enabled
        monitor = OBS.slo if obs_enabled else None
        # Armed monitors cost one local float comparison per event; the
        # method call happens only when the clock crosses a boundary.
        next_eval = (
            monitor.next_boundary if monitor is not None else float("inf")
        )
        while heap and heap[0][0] <= end:
            time, _, kind, d, epoch = heapq.heappop(heap)
            if kind == EV_WAKE and epoch != wake_epoch[d]:
                continue  # cancelled wake: skipped, not dispatched
            self._now = time
            if obs_enabled:
                with OBS.tracer.span("engine.event", t=time):
                    self._dispatch(kind, d, time)
                OBS.metrics.counter("engine.events_dispatched").inc()
                if time >= next_eval:
                    monitor.maybe_evaluate(time)
                    next_eval = monitor.next_boundary
            else:
                self._dispatch(kind, d, time)
            executed += 1
        self._now = max(self._now, end)
        if obs_enabled and self._now > run_start:
            OBS.metrics.gauge("engine.sim_time").set(self._now)
            OBS.metrics.gauge("engine.events_per_sim_second").set(
                executed / (self._now - run_start)
            )
        self.events_dispatched += executed
        return executed


class ActorView:
    """Read-only per-database view over the columnar state.

    Preserves the actor API surface (lifecycle state, slot, prediction,
    outcome, history) for tests, observability tooling, and debugging --
    the "thin view" the refactor keeps in place of the actor objects.
    """

    __slots__ = ("_engine", "_d")

    def __init__(self, engine: ColumnarRegionEngine, d: int):
        self._engine = engine
        self._d = d

    @property
    def database_id(self) -> str:
        return self._engine._db_label(self._d)

    @property
    def lifecycle_state(self) -> LifecycleState:
        return STATE_FROM_CODE[self._engine.s.phase[self._d]]

    @property
    def holds_slot(self) -> bool:
        return bool(self._engine.s.holds_slot[self._d])

    @property
    def old(self) -> bool:
        return bool(self._engine.s.old[self._d])

    @property
    def next_activity(self) -> PredictedActivity:
        return self._engine._next_activity(self._d)

    @property
    def outcome(self) -> Optional[DatabaseOutcome]:
        outcomes = getattr(self._engine.acct, "outcomes", None)
        return outcomes[self._d] if outcomes is not None else None

    @property
    def history(self) -> Optional[HistoryStore]:
        stores = getattr(self._engine.hist, "stores", None)
        return stores[self._d] if stores is not None else None

    def __repr__(self) -> str:
        return (
            f"ActorView({self.database_id!r}, {self.lifecycle_state.value}, "
            f"holds_slot={self.holds_slot})"
        )


def actor_views(engine: ColumnarRegionEngine) -> List[ActorView]:
    return [ActorView(engine, d) for d in range(engine.s.n)]


# ---------------------------------------------------------------------------
# Full-mode region driver (byte-identical to region._simulate_region)
# ---------------------------------------------------------------------------


def simulate_region_columnar(
    traces: Sequence[ActivityTrace],
    policy,
    config: ProRPConfig,
    settings,
):
    """Run one region on the columnar engine with the real stores.

    Mirrors ``region._simulate_region`` step for step (cluster and RNG
    construction, per-trace setup order, start order, resume-operation
    scheduling) through the same wiring helpers and returns the same
    :class:`~repro.simulation.region.RegionSimulationResult`; the one
    difference is that the settle-phase predictions are batched.
    """
    proactive = policy is PolicyKind.PROACTIVE
    cluster = _build_cluster(settings)
    metadata = MetadataStore()
    fast_predictor = _build_fast_predictor(config, settings, proactive)
    breaker = _build_breaker(proactive)
    stream = _build_kpi_stream(settings)
    ids = [trace.database_id for trace in traces]
    outcomes, maintenance_lists, stores = _per_trace_setup(
        traces, proactive, config, settings
    )

    sess_offsets, sess_starts, sess_ends = sessions_to_csr(
        [trace.sessions for trace in traces]
    )
    maint_offsets, maint_starts, maint_ends = sessions_to_csr(maintenance_lists)
    created_at = np.fromiter(
        (trace.created_at for trace in traces), dtype=np.int64, count=len(traces)
    )
    state = ColumnarState(
        len(traces),
        sess_offsets,
        sess_starts,
        sess_ends,
        maint_offsets,
        maint_starts,
        maint_ends,
        created_at,
    )
    engine = ColumnarRegionEngine(
        state,
        proactive=proactive,
        config=config,
        sim_start=settings.sim_start,
        sim_end=settings.eval_end,
        acct=StoreAccounting(outcomes, stream=stream),
        hist=StoreHistory(stores) if proactive else NullHistory(),
        meta=StoreMetadata(metadata, ids),
        cluster=StoreCluster(cluster, ids),
        fast_predictor=fast_predictor,
        breaker=breaker,
        prorp_outages=settings.prorp_outages,
        collect_predictions=settings.collect_predictions,
        bank=_build_bank(settings, config, proactive),
    )
    engine.start_all()

    resume_operation: Optional[ProactiveResumeOperation] = None
    if proactive:
        index_of = {database_id: d for d, database_id in enumerate(ids)}
        resume_operation = ProactiveResumeOperation(
            metadata,
            prewarm_s=config.prewarm_s,
            period_s=config.resume_operation_period_s,
            on_prewarm=lambda db_id, now: engine.prewarm(index_of[db_id], now),
            retain_iterations=settings.resume_iteration_retention,
        )
        _start_resume_loop(
            resume_operation.run_once, engine.schedule_resume_op, config, settings
        )

    engine.run_until(settings.eval_end)
    for d in range(state.n):
        engine.finalize(d, settings.eval_end)

    return RegionSimulationResult(
        policy=policy.value,
        settings=settings,
        config=config,
        outcomes=outcomes,
        resume_iterations=(
            resume_operation.iterations if resume_operation else []
        ),
        histories=dict(zip(ids, stores)),
        cluster_moves=cluster.moves,
    )
