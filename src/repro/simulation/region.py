"""Region-level simulation: a fleet of serverless databases under one
resource allocation policy.

``simulate_region`` replays every database's activity trace through the
chosen policy (reactive baseline, proactive Algorithm 1, or the clairvoyant
optimum), shares one cluster and one metadata store across the fleet, runs
the periodic proactive resume operation (Algorithm 5), and aggregates the
KPI metrics of Section 8.

A warm-up lead (default one day) precedes the evaluation window so the
lifecycle states settle before anything is measured; history older than the
warm-up is bulk-loaded into each database's history store, mirroring a
fleet that has been running for weeks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster import Cluster
from repro.config import DEFAULT_CONFIG, ProRPConfig
from repro.core.fast_predictor import FastPredictor
from repro.core.kpi import KpiReport
from repro.core.policy import PolicyKind
from repro.core.resume_service import IterationRecord, ProactiveResumeOperation
from repro.errors import SimulationError
from repro.faults.resilience import CircuitBreaker
from repro.faults.runtime import FAULTS
from repro.observability.metrics import SIZE_BUCKETS
from repro.observability.runtime import OBS
from repro.simulation.actor import ProactiveActor, ReactiveActor, _BaseActor
from repro.simulation.engine import EventQueue
from repro.simulation.results import DatabaseOutcome, aggregate, bucket_event_times
from repro.storage.history import HistoryStore
from repro.storage.metadata import MetadataStore
from repro.types import SECONDS_PER_DAY, ActivityTrace, HistoryEvent, Session
from repro.workload.archetypes import maintenance_sessions


@dataclass(frozen=True)
class SimulationSettings:
    """Non-policy knobs of the simulation environment."""

    eval_start: int
    eval_end: int
    #: Settling time before the evaluation window (states converge).
    warmup_s: int = SECONDS_PER_DAY
    #: Cluster shape; capacity is per node.
    n_nodes: int = 8
    node_capacity: int = 64
    resume_latency_s: int = 45
    resume_latency_jitter_s: int = 15
    move_latency_s: int = 180
    seed: int = 0
    #: Use the vectorised predictor (reference predictor when False).
    use_fast_predictor: bool = True
    #: Keep only the most recent N resume-operation iteration records,
    #: rolling older ones into aggregate counters (None keeps all; see
    #: ProactiveResumeOperation.retain_iterations).
    resume_iteration_retention: Optional[int] = None
    #: System maintenance operations per database per week (Section 3.3);
    #: 0 disables them.  They hold/resume resources but are excluded from
    #: history, predictions, and the customer KPIs.
    maintenance_per_week: float = 0.0
    #: Time the reference predictor per call (Figure 10(c)); forces the
    #: reference implementation.
    measure_prediction_latency: bool = False
    #: Keep per-database allocation timelines (examples / plots).
    collect_timelines: bool = False
    #: Record every prediction (time, start, end, confidence) for offline
    #: accuracy evaluation (repro.core.accuracy).
    collect_predictions: bool = False
    #: Intervals [(start, end), ...] during which the ProRP components
    #: (prediction + proactive resume operation) are down.  Section 3.2:
    #: "If any component of ProRP goes down, the system must default to
    #: the reactive policy until the failed component comes up."
    prorp_outages: tuple = ()
    #: Simulation engine: "columnar" (struct-of-arrays FSM state, the
    #: default; see docs/fleet_scale.md) or "actor" (one Python object per
    #: database).  Byte-identical results either way -- the equivalence
    #: suite proves it -- so this is a representation knob, not a
    #: semantics knob.  Only the columnar engine batches the settle-phase
    #: predictions (one ``predict_fleet`` call); the actors scan per
    #: database.  Latency measurement always runs on the actors.
    engine: str = "columnar"
    #: Region label attached to the live SLO streams (``region=...``);
    #: empty means unlabelled series.  Purely observational: the KPI
    #: ledgers are byte-identical with or without it.
    region_label: str = ""
    #: Window width (sim seconds) of the live SLO streams fed by the
    #: columnar engines when observability is enabled.
    slo_window_s: int = 900
    #: Predictor-bank policies (``repro.tuning.bank.BANK_POLICIES`` names)
    #: the proactive engines route predictions through; the empty tuple
    #: disables the bank entirely (the byte-identical baseline).  A bank
    #: of exactly ``("sliding",)`` is a pure delegate and is likewise
    #: byte-identical to the baseline.
    predictor_bank: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.eval_end <= self.eval_start:
            raise SimulationError("eval_end must be after eval_start")
        if self.predictor_bank:
            from repro.tuning.bank import BANK_POLICIES

            for name in self.predictor_bank:
                if name not in BANK_POLICIES:
                    raise SimulationError(
                        f"unknown predictor-bank policy {name!r} "
                        f"(known: {', '.join(BANK_POLICIES)})"
                    )
        if self.slo_window_s <= 0:
            raise SimulationError("slo_window_s must be positive")
        if self.engine not in ("columnar", "actor"):
            raise SimulationError(
                f"unknown engine {self.engine!r} (choose 'columnar' or 'actor')"
            )
        if self.warmup_s < 0:
            raise SimulationError("warmup_s must be non-negative")
        if self.maintenance_per_week < 0:
            raise SimulationError("maintenance_per_week must be non-negative")
        if (
            self.resume_iteration_retention is not None
            and self.resume_iteration_retention <= 0
        ):
            raise SimulationError(
                "resume_iteration_retention must be positive (or None)"
            )
        for outage in self.prorp_outages:
            start, end = outage
            if end <= start:
                raise SimulationError(f"outage {outage} must have end > start")

    @property
    def sim_start(self) -> int:
        return self.eval_start - self.warmup_s


@dataclass
class RegionSimulationResult:
    """Everything a figure driver needs from one simulation run."""

    policy: str
    settings: SimulationSettings
    config: ProRPConfig
    outcomes: List[DatabaseOutcome]
    resume_iterations: List[IterationRecord] = field(default_factory=list)
    #: Per-database history stores after the run (Figure 10(a-b)).
    histories: Dict[str, HistoryStore] = field(default_factory=dict)
    cluster_moves: int = 0

    def kpis(self) -> KpiReport:
        return aggregate(
            self.policy,
            self.outcomes,
            self.settings.eval_start,
            self.settings.eval_end,
        )

    # -- Figure 11/12 helpers --------------------------------------------

    def prewarm_batch_sizes(self) -> List[int]:
        """Databases pre-warmed per resume-operation iteration, within the
        evaluation window (Figure 11's gray boxes)."""
        return [
            record.batch_size
            for record in self.resume_iterations
            if self.settings.eval_start <= record.time < self.settings.eval_end
        ]

    def workflow_counts_per_interval(self, kind: str, bucket_s: int) -> List[int]:
        """Workflow events per ``bucket_s`` interval (Figures 11-12)."""
        times: List[int] = []
        for outcome in self.outcomes:
            if kind == "physical_pause":
                times.extend(outcome.physical_pause_times)
            elif kind == "reactive_resume":
                times.extend(outcome.reactive_resume_times)
            elif kind == "proactive_resume":
                times.extend(outcome.proactive_resume_times)
            elif kind == "logical_pause":
                times.extend(outcome.logical_pause_times)
            else:
                raise ValueError(f"unknown workflow kind {kind!r}")
        return bucket_event_times(
            times, self.settings.eval_start, self.settings.eval_end, bucket_s
        )


def _warm_history(trace: ActivityTrace, sim_start: int, history_days: int) -> HistoryStore:
    """Bulk-load the history a long-running tracker would have accumulated
    by ``sim_start``: everything within the retention window plus the
    oldest event as the lifespan witness (Algorithm 3 keeps it)."""
    store = HistoryStore()
    retention_start = sim_start - history_days * SECONDS_PER_DAY
    events: List[HistoryEvent] = []
    all_events = [e for e in trace.events() if e.time_snapshot < sim_start]
    if all_events:
        witness = all_events[0]
        events.append(witness)
        events.extend(
            e
            for e in all_events[1:]
            if e.time_snapshot >= retention_start
        )
    store.bulk_load(events)
    return store


# ---------------------------------------------------------------------------
# Region wiring shared by the actor, columnar and lean drivers
# ---------------------------------------------------------------------------


def _new_outcome(trace: ActivityTrace, settings: SimulationSettings) -> DatabaseOutcome:
    return DatabaseOutcome(
        trace.database_id,
        settings.eval_start,
        settings.eval_end,
        collect_timeline=settings.collect_timelines,
    )


def _build_cluster(settings: SimulationSettings) -> Cluster:
    return Cluster(
        n_nodes=settings.n_nodes,
        node_capacity=settings.node_capacity,
        resume_latency_s=settings.resume_latency_s,
        resume_latency_jitter_s=settings.resume_latency_jitter_s,
        move_latency_s=settings.move_latency_s,
        seed=settings.seed,
    )


def _build_fast_predictor(
    config: ProRPConfig, settings: SimulationSettings, proactive: bool
) -> Optional[FastPredictor]:
    vectorised = settings.use_fast_predictor and not settings.measure_prediction_latency
    return FastPredictor(config) if proactive and vectorised else None


def _build_breaker(proactive: bool) -> Optional[CircuitBreaker]:
    """One predictor circuit breaker per region (the predictor is a shared
    component): repeated injected failures open it, degrading the whole
    fleet to reactive mode until the recovery window passes.  Built only
    under an armed injector so un-chaosed runs carry zero extra state."""
    if FAULTS.enabled and proactive:
        return CircuitBreaker(failure_threshold=5, recovery_s=900, name="predictor")
    return None


def _build_bank(settings: SimulationSettings, config: ProRPConfig, proactive: bool):
    """The region's shared PredictorBank, or None when disabled."""
    if not settings.predictor_bank or not proactive:
        return None
    from repro.tuning.bank import PredictorBank

    return PredictorBank(settings.predictor_bank, config)


def _build_kpi_stream(settings: SimulationSettings):
    """The live SLO stream the columnar accounting seams mirror KPI events
    into, or None when observability is off."""
    if not (OBS.enabled and OBS.metrics is not None):
        return None
    from repro.observability.slo import KpiStream

    return KpiStream(
        OBS.metrics,
        settings.eval_start,
        settings.eval_end,
        window_s=settings.slo_window_s,
        labels={"region": settings.region_label} if settings.region_label else None,
    )


def _per_trace_setup(
    traces: Sequence[ActivityTrace],
    proactive: bool,
    config: ProRPConfig,
    settings: SimulationSettings,
) -> Tuple[List[DatabaseOutcome], List[List[Session]], List[HistoryStore]]:
    """Per trace, in trace order: the outcome ledger, the maintenance
    schedule (its own RNG stream per database) and, under the proactive
    policy, the warm history store (an empty list otherwise)."""
    outcomes: List[DatabaseOutcome] = []
    maintenance_lists: List[List[Session]] = []
    stores: List[HistoryStore] = []
    for trace in traces:
        outcomes.append(_new_outcome(trace, settings))
        maintenance: List[Session] = []
        if settings.maintenance_per_week > 0:
            maintenance = maintenance_sessions(
                settings.sim_start,
                settings.eval_end,
                random.Random(f"{settings.seed}:maint:{trace.database_id}"),
                per_week=settings.maintenance_per_week,
            )
        maintenance_lists.append(maintenance)
        if proactive:
            stores.append(
                _warm_history(trace, settings.sim_start, config.history_days)
            )
    return outcomes, maintenance_lists, stores


def _start_resume_loop(
    run_once: Callable[[int], object],
    schedule: Callable[[int, Callable[[int], None]], object],
    config: ProRPConfig,
    settings: SimulationSettings,
) -> None:
    """Run Algorithm 5 (``run_once``) every ``resume_operation_period_s``
    from ``sim_start``; ``schedule(at, tick)`` books one iteration on the
    driver's own queue, consuming one sequence number each."""
    period = config.resume_operation_period_s

    def tick(now: int) -> None:
        # Section 3.2: a downed ProRP skips its iterations entirely; the
        # fleet falls back to reactive resumes until recovery.
        if not any(start <= now < end for start, end in settings.prorp_outages):
            run_once(now)
        nxt = now + period
        if nxt < settings.eval_end:
            schedule(nxt, tick)

    schedule(settings.sim_start + period, tick)


def simulate_region(
    traces: Sequence[ActivityTrace],
    policy: Union[PolicyKind, str] = PolicyKind.PROACTIVE,
    config: ProRPConfig = DEFAULT_CONFIG,
    settings: Optional[SimulationSettings] = None,
) -> RegionSimulationResult:
    """Simulate a region of serverless databases under one policy.

    ``settings`` defaults to: evaluate the final 4 days of the traces with a
    1-day warm-up (the Figure 7 shape).
    """
    if isinstance(policy, str):
        policy = PolicyKind(policy)
    if not traces:
        raise SimulationError("simulate_region needs at least one trace")
    if settings is None:
        span_end = max(trace.span[1] for trace in traces)
        settings = SimulationSettings(
            eval_start=span_end - 4 * SECONDS_PER_DAY,
            eval_end=span_end,
        )
    if not OBS.enabled:
        return _simulate_region(traces, policy, config, settings)
    # The root of the run's trace: every engine.event span (and everything
    # those dispatch into) nests under it.
    with OBS.tracer.span(
        "simulate.region", policy=policy.value, n_databases=len(traces)
    ):
        result = _simulate_region(traces, policy, config, settings)
    for store in result.histories.values():
        OBS.metrics.histogram("history.tuples", buckets=SIZE_BUCKETS).observe(
            store.tuple_count
        )
    return result


def _simulate_region(
    traces: Sequence[ActivityTrace],
    policy: PolicyKind,
    config: ProRPConfig,
    settings: SimulationSettings,
) -> RegionSimulationResult:
    if policy is PolicyKind.OPTIMAL:
        return _simulate_optimal(traces, config, settings)
    if policy is PolicyKind.PROVISIONED:
        return _simulate_provisioned(traces, config, settings)

    if settings.engine == "columnar" and not settings.measure_prediction_latency:
        # Struct-of-arrays engine: byte-identical replay of the actor path
        # (the latency-measuring mode stays on the actors, whose per-call
        # timing hook the overhead experiment depends on).
        from repro.simulation.columnar import simulate_region_columnar

        return simulate_region_columnar(traces, policy, config, settings)

    proactive = policy is PolicyKind.PROACTIVE
    queue = EventQueue(start=settings.sim_start)
    cluster = _build_cluster(settings)
    metadata = MetadataStore()
    fast_predictor = _build_fast_predictor(config, settings, proactive)
    breaker = _build_breaker(proactive)
    bank = _build_bank(settings, config, proactive)
    outcomes, maintenance_lists, stores = _per_trace_setup(
        traces, proactive, config, settings
    )

    window = (settings.sim_start, settings.eval_end)
    actors: Dict[str, _BaseActor] = {}
    for i, trace in enumerate(traces):
        common = (trace, queue, cluster, metadata, outcomes[i], config)
        if proactive:
            actors[trace.database_id] = ProactiveActor(
                *common,
                *window,
                history=stores[i],
                fast_predictor=fast_predictor,
                measure_prediction_latency=settings.measure_prediction_latency,
                maintenance=maintenance_lists[i],
                collect_predictions=settings.collect_predictions,
                prorp_outages=settings.prorp_outages,
                breaker=breaker,
                bank=bank,
            )
        else:
            actors[trace.database_id] = ReactiveActor(
                *common, *window, maintenance=maintenance_lists[i]
            )

    for actor in actors.values():
        actor.start()

    resume_operation: Optional[ProactiveResumeOperation] = None
    if proactive:
        resume_operation = ProactiveResumeOperation(
            metadata,
            prewarm_s=config.prewarm_s,
            period_s=config.resume_operation_period_s,
            on_prewarm=lambda db_id, now: actors[db_id].prewarm(now),
            retain_iterations=settings.resume_iteration_retention,
        )
        _start_resume_loop(
            resume_operation.run_once, queue.schedule_oneshot, config, settings
        )

    queue.run_until(settings.eval_end)
    for actor in actors.values():
        actor.finalize(settings.eval_end)

    return RegionSimulationResult(
        policy=policy.value,
        settings=settings,
        config=config,
        outcomes=outcomes,
        resume_iterations=resume_operation.iterations if resume_operation else [],
        histories={t.database_id: store for t, store in zip(traces, stores)},
        cluster_moves=cluster.moves,
    )


def _simulate_optimal(
    traces: Sequence[ActivityTrace],
    config: ProRPConfig,
    settings: SimulationSettings,
) -> RegionSimulationResult:
    """The clairvoyant optimum of Figure 2(c): A(d, t) = D(d, t).

    Computed analytically: every login is served, resources are never idle
    nor unavailable, and used time equals demanded time."""
    outcomes: List[DatabaseOutcome] = []
    for trace in traces:
        outcome = _new_outcome(trace, settings)
        for session in trace.sessions:
            if session.end > settings.eval_start and session.start < settings.eval_end:
                outcome.add_used(session.start, session.end)
            if settings.eval_start <= session.start < settings.eval_end:
                outcome.record_login(session.start, served=True)
        outcomes.append(outcome)
    return RegionSimulationResult(
        policy=PolicyKind.OPTIMAL.value,
        settings=settings,
        config=config,
        outcomes=outcomes,
    )


def _simulate_provisioned(
    traces: Sequence[ActivityTrace],
    config: ProRPConfig,
    settings: SimulationSettings,
) -> RegionSimulationResult:
    """Fixed-size provisioning (Section 1's pre-serverless baseline):
    A(d, t) = 1 always.  Every login is served instantly; every idle second
    is paid for.  Computed analytically -- the allocation never changes,
    so there is nothing to simulate.

    The idle time is booked as "logical pause" for lack of a finer cause:
    it is the same D=0, A=1 quadrant of Definition 2.2.
    """
    outcomes: List[DatabaseOutcome] = []
    for trace in traces:
        outcome = _new_outcome(trace, settings)
        cursor = settings.eval_start
        for session in trace.sessions:
            if session.end <= settings.eval_start:
                continue
            if session.start >= settings.eval_end:
                break
            start = max(session.start, settings.eval_start)
            if start > cursor:
                outcome.add_idle(cursor, start, "logical_pause")
            outcome.add_used(session.start, session.end)
            cursor = min(session.end, settings.eval_end)
            if settings.eval_start <= session.start < settings.eval_end:
                outcome.record_login(session.start, served=True)
        if cursor < settings.eval_end:
            outcome.add_idle(cursor, settings.eval_end, "logical_pause")
        outcomes.append(outcome)
    return RegionSimulationResult(
        policy=PolicyKind.PROVISIONED.value,
        settings=settings,
        config=config,
        outcomes=outcomes,
    )
