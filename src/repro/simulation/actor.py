"""Per-database policy executors.

Each actor replays one database's activity trace (session start/end events)
through a resource allocation policy, driving the Figure 4 lifecycle,
maintaining the history store, requesting capacity from the cluster, and
writing the outcome accounting.

:class:`ProactiveActor` implements Algorithm 1 end to end: history
maintenance (Algorithms 2-3), next-activity prediction (Algorithm 4), the
idle decisions, and the pre-warm entry point invoked by the proactive
resume operation (Algorithm 5).  :class:`ReactiveActor` is the Section 2.2
baseline: logical pause on idle, physical pause after ``l``, reactive
resume on login.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster import Cluster
from repro.config import ProRPConfig
from repro.core.fast_predictor import FastPredictor
from repro.core.lifecycle import Lifecycle, LifecycleState, LifecycleTransition
from repro.core.policy import (
    IdleDecision,
    decide_after_logical_pause,
    decide_on_idle,
    logical_pause_wake_time,
    prediction_expired,
    reactive_wake_time,
)
from repro.core.predictor import predict_next_activity
from repro.errors import FaultInjectedError, SimulationError
from repro.faults.resilience import CircuitBreaker
from repro.faults.runtime import FAULTS
from repro.simulation.engine import EventQueue, Timer
from repro.simulation.results import DatabaseOutcome
from repro.storage.history import HistoryStore
from repro.storage.metadata import DatabaseState, MetadataStore
from repro.types import ActivityTrace, EventType, PredictedActivity, Session

#: Fault point consulted once per prediction refresh: the predictor backend
#: raises (store unreachable, procedure timeout).  Repeated fires trip the
#: predictor circuit breaker, which degrades the policy to reactive mode --
#: the paper's own fallback for databases without a usable history (S4).
PREDICTOR_FAULT_POINT = "predictor.exception"


class _BaseActor:
    """Trace replay, cluster bookkeeping, and accounting shared by both
    policies."""

    def __init__(
        self,
        trace: ActivityTrace,
        queue: EventQueue,
        cluster: Cluster,
        metadata: MetadataStore,
        outcome: DatabaseOutcome,
        config: ProRPConfig,
        sim_start: int,
        sim_end: int,
        maintenance: Sequence[Session] = (),
    ):
        self.trace = trace
        self.queue = queue
        self.cluster = cluster
        self.metadata = metadata
        self.outcome = outcome
        self.config = config
        self.sim_start = sim_start
        self.sim_end = sim_end
        #: System maintenance operations (backups, updates): they resume
        #: resources when needed but are excluded from the history and from
        #: the customer KPIs (Section 3.3).
        self.maintenance: Sequence[Session] = tuple(maintenance)

        self.database_id = trace.database_id
        self.lifecycle = Lifecycle(self.database_id, record_log=False)
        self._session_index = 0
        self._maintenance_index = 0
        self._maintenance_until = 0
        self._maintenance_from_physical = False
        self._wake_timer: Optional[Timer] = None
        self._active_since: Optional[int] = None
        self._pause_start: Optional[int] = None
        #: Why the current logical pause holds resources: None for the
        #: policy's own pause, "prewarm" after Algorithm 5, "maintenance"
        #: while a system operation needs the database.
        self._pause_origin: Optional[str] = None
        self._resume_started_at: Optional[int] = None
        self._deferred_session_end = False
        self._holds_slot = False
        #: When the customer last went idle (the paper's pauseStart); used
        #: by policy decisions even when maintenance segments the pause.
        self._idle_since: Optional[int] = None
        #: True while the policy runs reactively because of an injected
        #: fault (predictor breaker open / failed refresh) rather than by
        #: its own decision; reactive logins in this state are attributed
        #: to faults in the KPI layer.
        self._fault_degraded = False

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Register the database, set its state at ``sim_start``, and
        schedule its first trace event."""
        self.cluster.place(self.database_id)
        self.metadata.register(
            self.database_id,
            created_at=self.trace.created_at,
            node_id=self.cluster.node_of(self.database_id).node_id,
        )
        self._schedule_first_maintenance()
        sessions = self.trace.sessions
        # Skip sessions entirely before the simulation window.
        while (
            self._session_index < len(sessions)
            and sessions[self._session_index].end <= self.sim_start
        ):
            self._session_index += 1
        if self._session_index >= len(sessions):
            self._enter_initial_physical_pause()
            return
        current = sessions[self._session_index]
        if self.trace.created_at > self.sim_start:
            # The database does not exist yet: it comes to life physically
            # paused and its first login resumes it reactively (Section 4).
            self._enter_initial_physical_pause()
            self.queue.schedule_oneshot(current.start, self._on_session_start)
            return
        if current.start <= self.sim_start:
            # Mid-session at simulation start: resumed and active.
            self._acquire_slot()
            self.metadata.set_state(self.database_id, DatabaseState.RESUMED)
            self._active_since = self.sim_start
            self.queue.schedule_oneshot(
                min(current.end, self.sim_end), self._on_session_end
            )
        else:
            # Idle at simulation start: settle through the policy's idle
            # path so the state at eval time is policy-consistent.
            self._enter_initial_idle()
            self.queue.schedule_oneshot(current.start, self._on_session_start)

    def _enter_initial_physical_pause(self) -> None:
        self.metadata.set_state(self.database_id, DatabaseState.PHYSICAL_PAUSE)
        self.lifecycle.state = LifecycleState.PHYSICALLY_PAUSED

    # ------------------------------------------------------------------
    # System maintenance operations (Section 3.3)
    # ------------------------------------------------------------------

    def _schedule_first_maintenance(self) -> None:
        while (
            self._maintenance_index < len(self.maintenance)
            and self.maintenance[self._maintenance_index].end <= self.sim_start
        ):
            self._maintenance_index += 1
        if self._maintenance_index < len(self.maintenance):
            op = self.maintenance[self._maintenance_index]
            if op.start < self.sim_end:
                self.queue.schedule_oneshot(
                    max(op.start, self.sim_start), self._on_maintenance_start
                )

    def _on_maintenance_start(self, now: int) -> None:
        """A system operation needs the database: hold (or bring up)
        resources until it completes.  No history event, no login -- the
        paper's tracker records customer activity only."""
        op = self.maintenance[self._maintenance_index]
        self._maintenance_index += 1
        if self._maintenance_index < len(self.maintenance):
            nxt = self.maintenance[self._maintenance_index]
            if nxt.start < self.sim_end:
                self.queue.schedule_oneshot(nxt.start, self._on_maintenance_start)
        self._maintenance_until = max(
            self._maintenance_until, min(op.end, self.sim_end)
        )
        state = self.lifecycle.state
        if state is LifecycleState.PHYSICALLY_PAUSED:
            self._acquire_slot()
            self.lifecycle.apply(LifecycleTransition.MAINTENANCE_RESUME, now)
            self.metadata.set_state(self.database_id, DatabaseState.LOGICAL_PAUSE)
            self.outcome.record_workflow(now, "maintenance_resume")
            self._pause_start = now
            self._pause_origin = "maintenance"
            self._maintenance_from_physical = True
            self._schedule_wake(self._maintenance_until)
        elif state is LifecycleState.LOGICALLY_PAUSED:
            # Resources are already up; just make sure no wake-up reclaims
            # them while the operation runs.
            if (
                self._wake_timer is not None
                and self._wake_timer.time < self._maintenance_until
            ):
                self._schedule_wake(self._maintenance_until)
        # RESUMED / RESUMING: the operation rides on customer activity.

    def _maintenance_hold(self, now: int) -> bool:
        """True when a wake-up fired while an operation still runs: the
        caller must keep the logical pause and retry at the operation end."""
        if now < self._maintenance_until:
            self._schedule_wake(self._maintenance_until)
            return True
        return False

    def _close_maintenance_pause(self, now: int) -> bool:
        """At a wake after maintenance: book the held time.  Returns True
        when the database should go straight back to physical pause (it was
        physically paused before the operation resumed it)."""
        if self._pause_origin != "maintenance":
            return False
        from_physical = self._maintenance_from_physical
        self.outcome.add_idle(self._pause_start, now, "maintenance")
        if from_physical:
            self._pause_start = None
            self._pause_origin = None
            self._maintenance_from_physical = False
            return True
        # The customer went idle during the operation: continue as the
        # policy's own pause (a fresh accounting segment, but policy
        # decisions keep using the original idle moment in _idle_since).
        self._pause_start = now
        self._pause_origin = None
        self._maintenance_from_physical = False
        return False

    def _begin_idle(self, now: int) -> bool:
        """Mark the customer idle; when a maintenance operation is running,
        hold the resources until it completes and defer the policy's idle
        decision to the wake-up.  Returns True when held."""
        self._idle_since = now
        if now >= self._maintenance_until:
            return False
        if not self._holds_slot:
            self._acquire_slot()
        self.lifecycle.apply(LifecycleTransition.IDLE_TO_LOGICAL, now)
        self.metadata.set_state(self.database_id, DatabaseState.LOGICAL_PAUSE)
        self._pause_start = now
        self._pause_origin = "maintenance"
        self._schedule_wake(self._maintenance_until)
        return True

    def _enter_initial_idle(self) -> None:
        """Policy-specific settling for databases idle at ``sim_start``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Cluster slot bookkeeping
    # ------------------------------------------------------------------

    def _acquire_slot(self) -> int:
        """Take a compute slot; returns the allocation workflow latency."""
        if self._holds_slot:
            raise SimulationError(f"{self.database_id}: slot already held")
        outcome = self.cluster.allocate(self.database_id)
        self._holds_slot = True
        self.metadata.set_node(self.database_id, outcome.node_id)
        return outcome.latency_s

    def _release_slot(self) -> None:
        if not self._holds_slot:
            raise SimulationError(f"{self.database_id}: no slot to release")
        self.cluster.release(self.database_id)
        self._holds_slot = False

    # ------------------------------------------------------------------
    # Trace events
    # ------------------------------------------------------------------

    def _current_session(self):
        return self.trace.sessions[self._session_index]

    def _schedule_next_session(self) -> None:
        self._session_index += 1
        if self._session_index < len(self.trace.sessions):
            nxt = self.trace.sessions[self._session_index]
            if nxt.start < self.sim_end:
                self.queue.schedule_oneshot(nxt.start, self._on_session_start)

    def _on_session_start(self, now: int) -> None:
        self._record_history(now, EventType.ACTIVITY_START)
        self._idle_since = None
        state = self.lifecycle.state
        if state is LifecycleState.LOGICALLY_PAUSED:
            self._cancel_wake()
            self.lifecycle.apply(LifecycleTransition.LOGICAL_TO_RESUMED, now)
            self.metadata.set_state(self.database_id, DatabaseState.RESUMED)
            self.outcome.record_login(now, served=True)
            self._settle_idle_interval(now, resumed_by_login=True)
            self._active_since = now
            end = min(self._current_session().end, self.sim_end)
            self.queue.schedule_oneshot(end, self._on_session_end)
        elif state is LifecycleState.PHYSICALLY_PAUSED:
            latency = self._acquire_slot()
            self.lifecycle.apply(LifecycleTransition.REACTIVE_RESUME_START, now)
            self.metadata.set_state(self.database_id, DatabaseState.RESUMING)
            self.outcome.record_login(
                now, served=False, faulted=self._fault_degraded
            )
            self.outcome.record_workflow(now, "reactive_resume")
            self._resume_started_at = now
            self._deferred_session_end = False
            self.queue.schedule_oneshot(now + latency, self._on_resume_complete)
            end = min(self._current_session().end, self.sim_end)
            self.queue.schedule_oneshot(end, self._on_session_end)
        elif state is LifecycleState.RESUMING:
            # A new session while the previous reactive resume is still in
            # flight: resources are still unavailable.
            self.outcome.record_login(
                now, served=False, faulted=self._fault_degraded
            )
            self._resume_started_at = now
            self._deferred_session_end = False
            end = min(self._current_session().end, self.sim_end)
            self.queue.schedule_oneshot(end, self._on_session_end)
        else:
            raise SimulationError(
                f"{self.database_id}: session start at t={now} while already "
                f"{state.value}"
            )

    def _on_session_end(self, now: int) -> None:
        self._record_history(now, EventType.ACTIVITY_END)
        state = self.lifecycle.state
        if state is LifecycleState.RESUMED:
            if self._active_since is not None:
                self.outcome.add_used(self._active_since, now)
                self._active_since = None
            self._schedule_next_session()
            self._handle_idle(now)
        elif state is LifecycleState.RESUMING:
            # Demand ended before the resume workflow completed.
            if self._resume_started_at is not None:
                self.outcome.add_unavailable(self._resume_started_at, now)
                self._resume_started_at = None
            self._deferred_session_end = True
            self._schedule_next_session()
        else:
            raise SimulationError(
                f"{self.database_id}: session end at t={now} in state {state.value}"
            )

    def _on_resume_complete(self, now: int) -> None:
        if self.lifecycle.state is not LifecycleState.RESUMING:
            return  # stale completion (e.g. past sim end clipping)
        self.lifecycle.apply(LifecycleTransition.REACTIVE_RESUME_COMPLETE, now)
        self.metadata.set_state(self.database_id, DatabaseState.RESUMED)
        if self._resume_started_at is not None:
            self.outcome.add_unavailable(self._resume_started_at, now)
            self._resume_started_at = None
        if self._deferred_session_end:
            # The customer already left: the database is idle on arrival of
            # its resources; run the idle path immediately.
            self._deferred_session_end = False
            self._handle_idle(now)
        else:
            self._active_since = now

    # ------------------------------------------------------------------
    # Idle accounting
    # ------------------------------------------------------------------

    def _settle_idle_interval(self, now: int, resumed_by_login: bool) -> None:
        """Close the open logical-pause interval and classify it."""
        if self._pause_start is None:
            return
        if self._pause_origin == "prewarm":
            cause = "correct_proactive" if resumed_by_login else "wrong_proactive"
            self.outcome.add_idle(self._pause_start, now, cause)
            self.outcome.record_proactive_outcome(now, correct=resumed_by_login)
        elif self._pause_origin == "maintenance":
            # System-held time: excluded from the policy's COGS breakdown.
            self.outcome.add_idle(self._pause_start, now, "maintenance")
        else:
            self.outcome.add_idle(self._pause_start, now, "logical_pause")
        self._pause_start = None
        self._pause_origin = None
        self._maintenance_from_physical = False

    def _cancel_wake(self) -> None:
        if self._wake_timer is not None:
            self._wake_timer.cancel()
            self._wake_timer = None

    def _schedule_wake(self, at: int) -> None:
        self._cancel_wake()
        at = max(at, self.queue.now + 1)
        if at < self.sim_end:
            self._wake_timer = self.queue.schedule(at, self._on_wake)

    def _enter_physical_pause(
        self, now: int, transition: LifecycleTransition, pred_start: int
    ) -> None:
        self.lifecycle.apply(transition, now)
        self.metadata.record_physical_pause(self.database_id, pred_start)
        self.outcome.record_workflow(now, "physical_pause")
        if self._holds_slot:
            self._release_slot()

    def finalize(self, sim_end: int) -> None:
        """Close any interval still open when the simulation ends so every
        database-second of the evaluation window is accounted for."""
        state = self.lifecycle.state
        if state is LifecycleState.RESUMED and self._active_since is not None:
            self.outcome.add_used(self._active_since, sim_end)
            self._active_since = None
        elif state is LifecycleState.LOGICALLY_PAUSED:
            # record_proactive_outcome/record_login filter on t < eval_end,
            # so a pre-warm unresolved at the boundary is (correctly) not
            # classified as wrong -- only its idle seconds are booked.
            self._settle_idle_interval(sim_end, resumed_by_login=False)
        elif state is LifecycleState.RESUMING and self._resume_started_at is not None:
            self.outcome.add_unavailable(self._resume_started_at, sim_end)
            self._resume_started_at = None

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------

    def _record_history(self, now: int, event_type: EventType) -> None:
        """Customer-activity tracking; the reactive baseline skips it."""

    def _handle_idle(self, now: int) -> None:
        raise NotImplementedError

    def _on_wake(self, now: int) -> None:
        raise NotImplementedError


class ReactiveActor(_BaseActor):
    """The current reactive policy (Section 2.2): logical pause on idle,
    physical pause after ``l`` time units, reactive resume on login."""

    def _enter_initial_idle(self) -> None:
        self._enter_initial_physical_pause()

    def _handle_idle(self, now: int) -> None:
        if self._begin_idle(now):
            return  # held by a running maintenance operation
        self.lifecycle.apply(LifecycleTransition.IDLE_TO_LOGICAL, now)
        self.metadata.set_state(self.database_id, DatabaseState.LOGICAL_PAUSE)
        self.outcome.record_workflow(now, "logical_pause")
        self._pause_start = now
        self._schedule_wake(reactive_wake_time(now, self.config.logical_pause_s))

    def _on_wake(self, now: int) -> None:
        self._wake_timer = None
        if self.lifecycle.state is not LifecycleState.LOGICALLY_PAUSED:
            return  # stale timer
        if self._maintenance_hold(now):
            return
        if self._close_maintenance_pause(now):
            # Physically paused before the operation: return there.
            self._enter_physical_pause(
                now, LifecycleTransition.LOGICAL_TO_PHYSICAL, pred_start=0
            )
            self._idle_since = None
            return
        idle_since = self._idle_since if self._idle_since is not None else now
        if now < idle_since + self.config.logical_pause_s:
            # Maintenance segmented the pause: wait out the remainder of l.
            self._schedule_wake(idle_since + self.config.logical_pause_s)
            return
        self._settle_idle_interval(now, resumed_by_login=False)
        self._enter_physical_pause(
            now, LifecycleTransition.LOGICAL_TO_PHYSICAL, pred_start=0
        )
        self._idle_since = None


class ProactiveActor(_BaseActor):
    """Algorithm 1, driven by predictions over the database's own history."""

    def __init__(
        self,
        trace: ActivityTrace,
        queue: EventQueue,
        cluster: Cluster,
        metadata: MetadataStore,
        outcome: DatabaseOutcome,
        config: ProRPConfig,
        sim_start: int,
        sim_end: int,
        history: Optional[HistoryStore] = None,
        fast_predictor: Optional[FastPredictor] = None,
        maintenance: Sequence[Session] = (),
        collect_predictions: bool = False,
        prorp_outages: Sequence = (),
        breaker: Optional[CircuitBreaker] = None,
        bank: Optional["PredictorBank"] = None,
    ):
        super().__init__(
            trace,
            queue,
            cluster,
            metadata,
            outcome,
            config,
            sim_start,
            sim_end,
            maintenance=maintenance,
        )
        self.history = history if history is not None else HistoryStore()
        #: Region-shared predictor bank (repro.tuning.bank); None keeps the
        #: paper's single sliding-window path.  A sliding-only bank is a
        #: pure delegate, byte-identical to None.
        self._bank = bank
        self._fast_predictor = fast_predictor
        self._collect_predictions = collect_predictions
        self._prorp_outages = tuple(prorp_outages)
        #: Shared predictor circuit breaker (one per region under chaos):
        #: while open, every refresh degrades to reactive without touching
        #: the predictor at all.
        self._breaker = breaker
        self.next_activity = PredictedActivity.none()
        self.old = False

    # ------------------------------------------------------------------
    # History + prediction plumbing
    # ------------------------------------------------------------------

    def _record_history(self, now: int, event_type: EventType) -> None:
        self.history.insert_history(now, event_type)
        if self._bank is not None and event_type is EventType.ACTIVITY_START:
            self._bank.observe_login(self.database_id, now)

    def _prediction_config(self, now: int) -> ProRPConfig:
        """The Algorithm 4 configuration for this database right now: the
        fixed knob, or the per-database detected-seasonality variant."""
        if not self.config.auto_seasonality:
            return self.config
        from repro.core.seasonality import config_for_seasonality, detect_seasonality

        diagnosis = detect_seasonality(
            self.history.login_timestamps(), now, self.config.history_days
        )
        return config_for_seasonality(self.config, diagnosis.seasonality)

    def _prorp_down(self, now: int) -> bool:
        return any(start <= now < end for start, end in self._prorp_outages)

    def _refresh_prediction(self, now: int) -> None:
        """Algorithm 1 lines 8-9 / 24-25: trim history, re-predict."""
        if self._prorp_down(now):
            # Section 3.2 (Default to Reactive): with the proactive
            # components down, the database behaves exactly like a new one
            # -- logical pause on idle, physical pause after l, no
            # predictions, no pre-warms -- until ProRP comes back.
            self.old = False
            self.next_activity = PredictedActivity.none()
            return
        if self._breaker is not None and not self._breaker.allow(now):
            # Predictor breaker open after repeated failures: same reactive
            # fallback as above, without even touching the predictor, until
            # the recovery window half-opens the circuit.
            self.old = False
            self.next_activity = PredictedActivity.none()
            self._fault_degraded = True
            return
        self.old = self.history.delete_old_history(
            self.config.history_days, now
        ).old
        if not self.old:
            # A new database has no reliable prediction (Section 4).
            self.next_activity = PredictedActivity.none()
            self._fault_degraded = False
            return
        try:
            self._predict(now)
        except FaultInjectedError:
            if self._breaker is not None:
                self._breaker.record_failure(now)
            # This refresh degrades to reactive; the breaker decides
            # whether the next one even tries.
            self.old = False
            self.next_activity = PredictedActivity.none()
            self._fault_degraded = True
            return
        if self._breaker is not None:
            self._breaker.record_success(now)
        self._fault_degraded = False
        if self._collect_predictions:
            self.outcome.record_prediction(
                now,
                self.next_activity.start,
                self.next_activity.end,
                self.next_activity.confidence,
            )

    def _predict(self, now: int) -> None:
        """One predictor call through the configured backend; raises
        :class:`FaultInjectedError` when the ``predictor.exception`` fault
        fires instead of predicting."""
        if FAULTS.enabled and FAULTS.injector.should_fire(
            PREDICTOR_FAULT_POINT, now
        ):
            raise FaultInjectedError(
                PREDICTOR_FAULT_POINT, "injected: predictor backend failure"
            )
        config = self._prediction_config(now)
        if self._bank is not None:
            self.next_activity = self._bank.predict(
                self.database_id,
                now,
                self.history.login_array,
                lambda: self._predict_sliding(config, now),
            )
            return
        self.next_activity = self._predict_sliding(config, now)

    def _predict_sliding(self, config: ProRPConfig, now: int) -> PredictedActivity:
        """The paper's sliding-window path (Algorithm 4): one scan per
        call, never batched -- the per-database reference the columnar
        engine's settle and speculation batches are compared against."""
        if self._fast_predictor is not None:
            if config is self.config:
                predictor = self._fast_predictor
            else:
                from repro.core.fast_predictor import get_fast_predictor

                predictor = get_fast_predictor(config)
            return predictor.predict(self.history.login_array(), now)
        return predict_next_activity(self.history, config, now)

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------

    def _enter_initial_idle(self) -> None:
        self._handle_idle(self.sim_start)

    def _handle_idle(self, now: int) -> None:
        """Lines 7-12: on becoming idle while RESUMED."""
        if self._begin_idle(now):
            return  # held by a running maintenance operation
        if prediction_expired(self.next_activity.end, now):
            self._refresh_prediction(now)
        decision = decide_on_idle(
            now, self.old, self.next_activity.start, self.config.logical_pause_s
        )
        if decision is IdleDecision.PHYSICAL_PAUSE:
            if not self._holds_slot:
                # Initial settling: never held a slot; record state only.
                self.lifecycle.state = LifecycleState.PHYSICALLY_PAUSED
                self.metadata.record_physical_pause(
                    self.database_id, self.next_activity.start
                )
            else:
                self._enter_physical_pause(
                    now,
                    LifecycleTransition.IDLE_TO_PHYSICAL,
                    self.next_activity.start,
                )
        else:
            if not self._holds_slot:
                self._acquire_slot()
            self.lifecycle.apply(LifecycleTransition.IDLE_TO_LOGICAL, now)
            self.metadata.set_state(self.database_id, DatabaseState.LOGICAL_PAUSE)
            self.outcome.record_workflow(now, "logical_pause")
            self._pause_start = now
            self._pause_origin = None
            self._schedule_wake(
                logical_pause_wake_time(
                    now,
                    now,
                    self.old,
                    self.next_activity.start,
                    self.next_activity.end,
                    self.config.logical_pause_s,
                )
            )

    def _on_wake(self, now: int) -> None:
        """Lines 24-29: the logical-pause wait expired with no activity."""
        self._wake_timer = None
        if self.lifecycle.state is not LifecycleState.LOGICALLY_PAUSED:
            return  # stale timer
        if self._maintenance_hold(now):
            return
        if self._close_maintenance_pause(now):
            # Physically paused before the operation: return there with the
            # stored prediction intact so the pre-warm still happens.
            self._enter_physical_pause(
                now,
                LifecycleTransition.LOGICAL_TO_PHYSICAL,
                self.next_activity.start,
            )
            self._idle_since = None
            return
        if self._idle_since is not None:
            pause_start = self._idle_since
        elif self._pause_start is not None:
            pause_start = self._pause_start
        else:
            pause_start = now
        self._refresh_prediction(now)
        decision = decide_after_logical_pause(
            now, pause_start, self.old, self.next_activity.start,
            self.config.logical_pause_s,
        )
        if decision is IdleDecision.PHYSICAL_PAUSE:
            self._settle_idle_interval(now, resumed_by_login=False)
            self._enter_physical_pause(
                now, LifecycleTransition.LOGICAL_TO_PHYSICAL, self.next_activity.start
            )
        else:
            self._schedule_wake(
                logical_pause_wake_time(
                    now,
                    pause_start,
                    self.old,
                    self.next_activity.start,
                    self.next_activity.end,
                    self.config.logical_pause_s,
                )
            )

    def prewarm(self, now: int) -> None:
        """Algorithm 5 line 8: LogicalPause() for a physically paused
        database ahead of its predicted activity."""
        if self.lifecycle.state is not LifecycleState.PHYSICALLY_PAUSED:
            return  # raced with a reactive resume in the same tick
        self._acquire_slot()
        self.lifecycle.apply(LifecycleTransition.PROACTIVE_RESUME, now)
        self.metadata.set_state(self.database_id, DatabaseState.LOGICAL_PAUSE)
        self.outcome.record_workflow(now, "proactive_resume")
        self._pause_start = now
        self._pause_origin = "prewarm"
        self._schedule_wake(
            logical_pause_wake_time(
                now, now, self.old, self.next_activity.start,
                self.next_activity.end, self.config.logical_pause_s,
            )
        )
