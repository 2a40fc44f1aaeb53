"""Fleet-scale simulation: lean columnar backends and region sharding.

The columnar engine (:mod:`repro.simulation.columnar`) separates the FSM
replay from its storage backends.  ``simulate_region`` plugs in the *real*
stores -- one :class:`~repro.storage.history.HistoryStore`, one
:class:`~repro.simulation.results.DatabaseOutcome` per database -- which
is exactly right for the paper's figures but allocates millions of Python
objects at fleet scale.  This module provides **lean** backends with the
same observable semantics:

* :class:`LeanHistory` -- per-database login cursors over one flat
  ``int64`` array, replaying Algorithm 2/3 (timestamp-dedup inserts,
  witness-preserving trims) without a table;
* :class:`LeanMetadata` -- the ``sys.databases`` columns as arrays, with
  Algorithm 5's pre-warm scan as one masked array pass per region per
  tick, ordered exactly like the secondary-index scan
  ``(start_of_pred_activity, database_id)``;
* :class:`LeanAccounting` -- region-total KPI accumulators replacing
  per-database outcome objects (the :func:`~repro.simulation.results.
  aggregate` sums commute with per-call accumulation).

``simulate_fleet`` runs one region this way; ``simulate_fleet_sharded``
splits a fleet into independent regions across the
:mod:`repro.parallel` executors and merges the per-shard KPI reports in
submission order, so serial and sharded runs are byte-identical (see
docs/fleet_scale.md for the determinism argument).  Fault injection is
rejected here: the injector is process-global, so its consult ledger
cannot survive a fan-out unchanged -- chaos experiments stay on
``simulate_region``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, ProRPConfig
from repro.core.kpi import IdleBreakdown, KpiReport, LoginStats, WorkflowCounts
from repro.core.policy import PolicyKind
from repro.errors import SimulationError
from repro.faults.runtime import FAULTS
from repro.parallel import resolve_executor
from repro.simulation.columnar import (
    PH_PHYSICAL,
    PH_RESUMED,
    ColumnarRegionEngine,
    ColumnarState,
    NullHistory,
    StoreCluster,
)
from repro.simulation.region import (
    SimulationSettings,
    _build_bank,
    _build_cluster,
    _build_fast_predictor,
    _build_kpi_stream,
    _start_resume_loop,
)
from repro.types import SECONDS_PER_DAY, EventType
from repro.workload.fleetgen import DriftSpec, FleetShardSpec, FleetSlice


class LeanAccounting:
    """Region-total KPI accumulators with :class:`DatabaseOutcome`'s
    clipping semantics.

    Every ``add_*`` clips to the evaluation window and every ``record_*``
    filters on it exactly like the per-database outcome objects; since
    :func:`repro.simulation.results.aggregate` only ever sums outcome
    fields, accumulating region totals per call yields the identical
    :class:`KpiReport` -- proven by the lean-vs-full equivalence tests.

    ``stream`` (a :class:`repro.observability.slo.KpiStream`) mirrors the
    KPI events into windowed SLO series as they happen; it only writes
    metrics, so the accumulated totals stay byte-identical with it
    attached.
    """

    __slots__ = (
        "stream",
        "n",
        "eval_start",
        "eval_end",
        "used_s",
        "unavailable_s",
        "maintenance_s",
        "logical_pause_idle_s",
        "correct_proactive_idle_s",
        "wrong_proactive_idle_s",
        "logins_with_resources",
        "logins_reactive",
        "logins_reactive_faulted",
        "proactive_resumes",
        "reactive_resumes",
        "logical_pauses",
        "physical_pauses",
        "maintenance_resumes",
        "correct_proactive_resumes",
        "wrong_proactive_resumes",
    )

    def __init__(self, n: int, eval_start: int, eval_end: int, stream=None):
        self.n = n
        self.eval_start = eval_start
        self.eval_end = eval_end
        self.stream = stream
        self.used_s = 0
        self.unavailable_s = 0
        self.maintenance_s = 0
        self.logical_pause_idle_s = 0
        self.correct_proactive_idle_s = 0
        self.wrong_proactive_idle_s = 0
        self.logins_with_resources = 0
        self.logins_reactive = 0
        self.logins_reactive_faulted = 0
        self.proactive_resumes = 0
        self.reactive_resumes = 0
        self.logical_pauses = 0
        self.physical_pauses = 0
        self.maintenance_resumes = 0
        self.correct_proactive_resumes = 0
        self.wrong_proactive_resumes = 0

    def _clip(self, start: int, end: int) -> int:
        lo = max(start, self.eval_start)
        hi = min(end, self.eval_end)
        return max(0, hi - lo)

    def _in_window(self, t: int) -> bool:
        return self.eval_start <= t < self.eval_end

    def add_used(self, d: int, start: int, end: int) -> None:
        self.used_s += self._clip(start, end)
        if self.stream is not None:
            self.stream.used(start, end)

    def add_unavailable(self, d: int, start: int, end: int) -> None:
        self.unavailable_s += self._clip(start, end)
        if self.stream is not None:
            self.stream.unavailable(start, end)

    def add_idle(self, d: int, start: int, end: int, cause: str) -> None:
        if self.stream is not None:
            self.stream.idle(start, end)
        clipped = self._clip(start, end)
        if cause == "logical_pause":
            self.logical_pause_idle_s += clipped
        elif cause == "correct_proactive":
            self.correct_proactive_idle_s += clipped
        elif cause == "wrong_proactive":
            self.wrong_proactive_idle_s += clipped
        elif cause == "maintenance":
            self.maintenance_s += clipped
        else:
            raise ValueError(f"unknown idle cause {cause!r}")

    def record_login(
        self, d: int, t: int, served: bool, faulted: bool = False
    ) -> None:
        if not self._in_window(t):
            return
        if self.stream is not None:
            self.stream.login(t, served, faulted)
        if served:
            self.logins_with_resources += 1
        else:
            self.logins_reactive += 1
            if faulted:
                self.logins_reactive_faulted += 1

    def record_workflow(self, d: int, t: int, kind: str) -> None:
        if not self._in_window(t):
            return
        if self.stream is not None:
            self.stream.workflow(t, kind)
        if kind == "proactive_resume":
            self.proactive_resumes += 1
        elif kind == "reactive_resume":
            self.reactive_resumes += 1
        elif kind == "logical_pause":
            self.logical_pauses += 1
        elif kind == "physical_pause":
            self.physical_pauses += 1
        elif kind == "maintenance_resume":
            self.maintenance_resumes += 1
        else:
            raise ValueError(f"unknown workflow kind {kind!r}")

    def record_proactive_outcome(self, d: int, t: int, correct: bool) -> None:
        if not self._in_window(t):
            return
        if correct:
            self.correct_proactive_resumes += 1
        else:
            self.wrong_proactive_resumes += 1

    def record_prediction(
        self, d: int, now: int, start: int, end: int, confidence: float
    ) -> None:
        raise SimulationError(
            "lean accounting does not collect predictions "
            "(collect_predictions is gated off in simulate_fleet)"
        )

    def report(self, policy: str) -> KpiReport:
        """The :class:`KpiReport` ``aggregate`` would have produced."""
        window = self.eval_end - self.eval_start
        idle_total = (
            self.logical_pause_idle_s
            + self.correct_proactive_idle_s
            + self.wrong_proactive_idle_s
        )
        return KpiReport(
            policy=policy,
            n_databases=self.n,
            eval_start=self.eval_start,
            eval_end=self.eval_end,
            logins=LoginStats(
                with_resources=self.logins_with_resources,
                reactive=self.logins_reactive,
                reactive_faulted=self.logins_reactive_faulted,
            ),
            idle=IdleBreakdown(
                logical_pause_s=self.logical_pause_idle_s,
                correct_proactive_s=self.correct_proactive_idle_s,
                wrong_proactive_s=self.wrong_proactive_idle_s,
            ),
            workflows=WorkflowCounts(
                proactive_resumes=self.proactive_resumes,
                reactive_resumes=self.reactive_resumes,
                logical_pauses=self.logical_pauses,
                physical_pauses=self.physical_pauses,
                correct_proactive_resumes=self.correct_proactive_resumes,
                wrong_proactive_resumes=self.wrong_proactive_resumes,
                maintenance_resumes=self.maintenance_resumes,
            ),
            unavailable_s=self.unavailable_s,
            used_s=self.used_s,
            saved_s=(
                self.n * window
                - self.used_s
                - idle_total
                - self.unavailable_s
                - self.maintenance_s
            ),
            maintenance_s=self.maintenance_s,
        )


class LeanHistory:
    """Per-database login cursors over one flat array.

    Replays exactly what a warm :class:`HistoryStore` would observe
    (Algorithm 2's timestamp-dedup insert, Algorithm 3's
    witness-preserving trim), but the
    only state per database is a handful of cursor scalars into a shared
    ``int64`` login array:

    * ``top[d]``: logins inserted so far (warm prefix + live appends);
    * ``k[d]``: trim cursor -- logins below it (except the witness) have
      been deleted;
    * ``witness_login[d]``: whether the surviving oldest tuple (the
      lifespan witness Algorithm 3 keeps) is a login, in which case it
      heads the login view regardless of ``k``.

    A live insert asserts the appended login lands where the
    precomputed capacity expects it -- divergence from the event stream
    fails loudly instead of silently skewing predictions.
    """

    def __init__(
        self,
        sess_offsets: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        sim_start: int,
        history_days: int,
    ):
        n = len(sess_offsets) - 1
        retention_start = sim_start - history_days * SECONDS_PER_DAY
        self.n = n
        self.has_event = np.zeros(n, dtype=bool)
        self.witness_login = np.zeros(n, dtype=bool)
        self.min_ts = np.full(n, -1, dtype=np.int64)
        self.last_ts = np.full(n, -1, dtype=np.int64)
        self.top = np.zeros(n, dtype=np.int64)
        self.k = np.zeros(n, dtype=np.int64)

        # Warm-start replay: the events a long-running tracker would have
        # inserted by sim_start -- the oldest event (witness) plus
        # everything within the retention window, deduped on timestamp --
        # mirroring ``region._warm_history`` + ``HistoryStore.bulk_load``.
        warm: List[List[int]] = []
        offsets_list = sess_offsets.tolist()
        starts_list = starts.tolist()
        ends_list = ends.tolist()
        for d in range(n):
            lo, hi = offsets_list[d], offsets_list[d + 1]
            logins: List[int] = []
            last = -1
            first_event = True
            for i in range(lo, hi):
                s = starts_list[i]
                if s >= sim_start:
                    break
                for t, is_start in ((s, True), (ends_list[i], False)):
                    if t >= sim_start:
                        continue
                    if not first_event and t < retention_start:
                        continue
                    first_event = False
                    if t == last:
                        continue
                    last = t
                    if not self.has_event[d]:
                        self.has_event[d] = True
                        self.min_ts[d] = t
                        self.witness_login[d] = is_start
                        if is_start:
                            self.k[d] = 1
                    if is_start:
                        logins.append(t)
            if logins or last >= 0:
                self.last_ts[d] = last
            warm.append(logins)
            self.top[d] = len(logins)

        # Capacity per database: warm logins + live session starts after
        # sim_start (the only candidates for further login inserts).
        live_counts = np.empty(n, dtype=np.int64)
        for d in range(n):
            lo, hi = offsets_list[d], offsets_list[d + 1]
            live_counts[d] = hi - lo - int(
                np.searchsorted(starts[lo:hi], sim_start, side="right")
            )
        capacity = self.top + live_counts
        self.off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(capacity, out=self.off[1:])
        self.logins = np.empty(int(self.off[-1]), dtype=np.int64)
        for d in range(n):
            if warm[d]:
                base = int(self.off[d])
                self.logins[base : base + len(warm[d])] = warm[d]

    def nbytes(self) -> int:
        arrays = (
            self.has_event,
            self.witness_login,
            self.min_ts,
            self.last_ts,
            self.top,
            self.k,
            self.off,
            self.logins,
        )
        return sum(a.nbytes for a in arrays)

    def record(self, d: int, t: int, event_type: EventType) -> None:
        if t == self.last_ts[d]:
            return  # Algorithm 2's uniqueness guard (lines 3-6)
        self.last_ts[d] = t
        is_start = event_type == EventType.ACTIVITY_START
        if not self.has_event[d]:
            self.has_event[d] = True
            self.min_ts[d] = t
            self.witness_login[d] = is_start
            if is_start:
                self.k[d] = 1
        if is_start:
            pos = int(self.off[d]) + int(self.top[d])
            if pos >= int(self.off[d + 1]):
                raise SimulationError(
                    f"db[{d}]: login at t={t} exceeds the precomputed "
                    f"history capacity -- event stream diverged from the "
                    f"session arrays"
                )
            self.logins[pos] = t
            self.top[d] += 1

    def trim(self, d: int, history_days: int, now: int) -> bool:
        history_start = now - history_days * SECONDS_PER_DAY
        if not self.has_event[d] or self.min_ts[d] >= history_start:
            return False
        base = int(self.off[d])
        k = int(self.k[d])
        top = int(self.top[d])
        if k < top:
            # Logins strictly between the witness and history_start are
            # deleted; everything at or past the cursor exceeds min_ts
            # already (timestamps are unique), so one bisect suffices.
            self.k[d] = k + int(
                np.searchsorted(
                    self.logins[base + k : base + top],
                    history_start,
                    side="left",
                )
            )
        return True

    def login_array(self, d: int) -> np.ndarray:
        base = int(self.off[d])
        top = int(self.top[d])
        k = int(self.k[d])
        if self.witness_login[d]:
            if k <= 1:
                return self.logins[base : base + top]
            return np.concatenate(
                (self.logins[base : base + 1], self.logins[base + k : base + top])
            )
        return self.logins[base + k : base + top]

    def login_timestamps(self, d: int) -> Sequence[int]:
        return self.login_array(d).tolist()

    def export_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(offsets, logins)``: a compacted CSR snapshot of every
        database's *effective* login view.

        The live layout keeps deleted-but-untrimmed slots and the
        witness-before-cursor special case; the export materialises what
        :meth:`login_array` would return for each database, back to back,
        so a consumer (the serving tier's shared-memory arena) can slice
        ``logins[offsets[d]:offsets[d+1]]`` with no per-read branching.
        """
        visible = self.top - self.k
        witness_extra = self.witness_login & (self.k > 1)
        counts = np.where(
            self.witness_login & (self.k <= 1),
            self.top,
            visible + witness_extra,
        ).astype(np.int64)
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        out = np.empty(int(offsets[-1]), dtype=np.int64)
        for d in range(self.n):
            view = self.login_array(d)
            base = int(offsets[d])
            out[base : base + len(view)] = view
        return offsets, out

    def store(self, d: int):
        raise SimulationError(
            "lean history has no HistoryStore objects; the reference "
            "predictor path is gated off in simulate_fleet"
        )


class LeanMetadata:
    """``sys.databases`` as arrays, with Algorithm 5's scan vectorised.

    The pre-warm scan is one masked array pass per region per tick:
    ``state == PHYSICAL_PAUSE`` AND ``lo <= start_of_pred_activity <= hi``
    (inclusive, like the secondary-index range), ordered by
    ``(start_of_pred_activity, database_id)`` exactly as the index scan
    yields rows.
    """

    def __init__(self, ids: Sequence[str]):
        n = len(ids)
        self.ids = ids
        self.state = np.full(n, PH_RESUMED, dtype=np.int8)
        self.pred = np.zeros(n, dtype=np.int64)  # NO_PREDICTION_SENTINEL
        if all(ids[i] < ids[i + 1] for i in range(n - 1)):
            # Index-lexicographic ids (the fleetgen layout): rank == index.
            self.id_rank = np.arange(n, dtype=np.int64)
        else:
            order = sorted(range(n), key=ids.__getitem__)
            self.id_rank = np.empty(n, dtype=np.int64)
            self.id_rank[order] = np.arange(n, dtype=np.int64)

    def register(self, d: int, created_at: int, node_id: str) -> None:
        self.state[d] = PH_RESUMED

    def set_state(self, d: int, phase_code: int) -> None:
        self.state[d] = phase_code

    def record_physical_pause(self, d: int, pred_start: int) -> None:
        self.state[d] = PH_PHYSICAL
        self.pred[d] = pred_start

    def set_node(self, d: int, node_id: str) -> None:
        pass  # placement lives in the shared Cluster; no copy kept here

    def prewarm_indices(self, now: int, prewarm_s: int, period_s: int) -> np.ndarray:
        lo = now + prewarm_s
        hi = lo + period_s
        mask = (self.state == PH_PHYSICAL) & (self.pred >= lo) & (self.pred <= hi)
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            return idx
        order = np.lexsort((self.id_rank[idx], self.pred[idx]))
        return idx[order]

    def databases_to_prewarm(
        self, now: int, prewarm_s: int, period_s: int
    ) -> List[str]:
        """Protocol-compatible variant returning database ids."""
        return [self.ids[int(d)] for d in self.prewarm_indices(now, prewarm_s, period_s)]


@dataclass
class FleetSimulationResult:
    """Outcome of one lean fleet region."""

    policy: str
    settings: SimulationSettings
    config: ProRPConfig
    kpis: KpiReport
    n_databases: int
    events_dispatched: int
    resume_op_runs: int = 0
    prewarms: int = 0
    #: Struct-of-arrays footprint (FSM state + lean history), in bytes.
    state_nbytes: int = 0


@dataclass
class ShardedFleetResult:
    """Merged outcome of a sharded fleet run."""

    policy: str
    kpis: KpiReport
    shard_kpis: List[KpiReport]
    n_shards: int
    backend: str
    events_dispatched: int = 0
    resume_op_runs: int = 0
    prewarms: int = 0
    state_nbytes: int = 0


def _check_lean_supported(
    policy: PolicyKind, config: ProRPConfig, settings: SimulationSettings
) -> None:
    if policy not in (PolicyKind.PROACTIVE, PolicyKind.REACTIVE):
        raise SimulationError(
            f"simulate_fleet supports proactive/reactive policies, not "
            f"{policy.value!r} (the analytic baselines need no event loop)"
        )
    if FAULTS.enabled:
        raise SimulationError(
            "simulate_fleet does not support fault injection: the injector "
            "is process-global, so a sharded fan-out could not reproduce "
            "the serial consult ledger; use simulate_region for chaos runs"
        )
    if settings.measure_prediction_latency:
        raise SimulationError(
            "simulate_fleet cannot measure prediction latency "
            "(that mode runs on the per-actor engine)"
        )
    if settings.collect_timelines or settings.collect_predictions:
        raise SimulationError(
            "simulate_fleet keeps region totals only; per-database "
            "timelines/predictions need simulate_region"
        )
    if settings.maintenance_per_week > 0:
        raise SimulationError(
            "simulate_fleet does not model maintenance sessions "
            "(per-database RNG streams defeat the vectorised setup); "
            "use simulate_region"
        )
    if policy is PolicyKind.PROACTIVE and not settings.use_fast_predictor:
        raise SimulationError(
            "simulate_fleet requires the vectorised predictor "
            "(use_fast_predictor=True)"
        )
    if getattr(config, "auto_seasonality", False):
        raise SimulationError(
            "simulate_fleet does not support adaptive seasonality "
            "(per-database config resolution reads history stores)"
        )


def simulate_fleet(
    fleet: Union[FleetSlice, FleetShardSpec, DriftSpec],
    policy: Union[PolicyKind, str] = PolicyKind.PROACTIVE,
    config: ProRPConfig = DEFAULT_CONFIG,
    settings: Optional[SimulationSettings] = None,
) -> FleetSimulationResult:
    """Simulate one region of a (possibly huge) fleet with lean backends.

    Produces the same :class:`KpiReport` ``simulate_region`` would for
    the same databases and settings (the lean-vs-full equivalence tests
    pin this), at a fraction of the per-database memory and setup cost.
    """
    if isinstance(policy, str):
        policy = PolicyKind(policy)
    if isinstance(fleet, (FleetShardSpec, DriftSpec)):
        fleet = fleet.materialize()
    if settings is None:
        span_end = int(fleet.ends.max()) if fleet.n_sessions else SECONDS_PER_DAY
        settings = SimulationSettings(
            eval_start=span_end - SECONDS_PER_DAY, eval_end=span_end
        )
    _check_lean_supported(policy, config, settings)

    proactive = policy is PolicyKind.PROACTIVE
    n = fleet.n
    cluster = _build_cluster(settings)
    preplaced = cluster.place_fleet(fleet.ids)

    stream = _build_kpi_stream(settings)
    acct = LeanAccounting(n, settings.eval_start, settings.eval_end, stream=stream)
    hist = (
        LeanHistory(
            fleet.sess_offsets,
            fleet.starts,
            fleet.ends,
            settings.sim_start,
            config.history_days,
        )
        if proactive
        else NullHistory()
    )
    meta = LeanMetadata(fleet.ids)
    fast_predictor = _build_fast_predictor(config, settings, proactive)

    empty_offsets = np.zeros(n + 1, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    state = ColumnarState(
        n,
        fleet.sess_offsets,
        fleet.starts,
        fleet.ends,
        empty_offsets,
        empty,
        empty,
        np.asarray(fleet.created_at, dtype=np.int64),
    )
    engine = ColumnarRegionEngine(
        state,
        proactive=proactive,
        config=config,
        sim_start=settings.sim_start,
        sim_end=settings.eval_end,
        acct=acct,
        hist=hist,
        meta=meta,
        cluster=StoreCluster(cluster, fleet.ids),
        fast_predictor=fast_predictor,
        prorp_outages=settings.prorp_outages,
        preplaced_nodes=preplaced,
        bank=_build_bank(settings, config, proactive),
    )

    engine.start_all()

    runs = 0
    prewarms = 0
    if proactive:

        def run_once(now: int) -> None:
            # The happy path of ProactiveResumeOperation.run_once minus
            # the fault plumbing (faults are gated off above): one masked
            # scan, pre-warms in (pred_start, database_id) order.
            nonlocal runs, prewarms
            selected = meta.prewarm_indices(
                now, config.prewarm_s, config.resume_operation_period_s
            )
            runs += 1
            prewarms += int(selected.size)
            for d in selected:
                engine.prewarm(int(d), now)

        _start_resume_loop(run_once, engine.schedule_resume_op, config, settings)

    engine.run_until(settings.eval_end)
    for d in range(n):
        engine.finalize(d, settings.eval_end)

    nbytes = state.nbytes()
    if isinstance(hist, LeanHistory):
        nbytes += hist.nbytes()
    return FleetSimulationResult(
        policy=policy.value,
        settings=settings,
        config=config,
        kpis=acct.report(policy.value),
        n_databases=n,
        events_dispatched=engine.events_dispatched,
        resume_op_runs=runs,
        prewarms=prewarms,
        state_nbytes=nbytes,
    )


def merge_kpi_reports(reports: Sequence[KpiReport]) -> KpiReport:
    """Sum per-shard KPI reports into one region-style report.

    Every :class:`KpiReport` field is a sum over databases, so merging
    shards is pure field-wise addition -- order-independent in value, but
    callers still merge in submission order so any floating-point payload
    (prediction latencies) concatenates deterministically.
    """
    if not reports:
        raise SimulationError("merge_kpi_reports needs at least one report")
    head = reports[0]
    for report in reports[1:]:
        if report.policy != head.policy:
            raise SimulationError(
                f"cannot merge KPI reports across policies "
                f"({head.policy!r} vs {report.policy!r})"
            )
        if (
            report.eval_start != head.eval_start
            or report.eval_end != head.eval_end
        ):
            raise SimulationError(
                "cannot merge KPI reports across evaluation windows"
            )
    latencies: List[float] = []
    for report in reports:
        latencies.extend(report.prediction_latencies_s)
    return KpiReport(
        policy=head.policy,
        n_databases=sum(r.n_databases for r in reports),
        eval_start=head.eval_start,
        eval_end=head.eval_end,
        logins=LoginStats(
            with_resources=sum(r.logins.with_resources for r in reports),
            reactive=sum(r.logins.reactive for r in reports),
            reactive_faulted=sum(r.logins.reactive_faulted for r in reports),
        ),
        idle=IdleBreakdown(
            logical_pause_s=sum(r.idle.logical_pause_s for r in reports),
            correct_proactive_s=sum(r.idle.correct_proactive_s for r in reports),
            wrong_proactive_s=sum(r.idle.wrong_proactive_s for r in reports),
        ),
        workflows=WorkflowCounts(
            proactive_resumes=sum(r.workflows.proactive_resumes for r in reports),
            reactive_resumes=sum(r.workflows.reactive_resumes for r in reports),
            logical_pauses=sum(r.workflows.logical_pauses for r in reports),
            physical_pauses=sum(r.workflows.physical_pauses for r in reports),
            correct_proactive_resumes=sum(
                r.workflows.correct_proactive_resumes for r in reports
            ),
            wrong_proactive_resumes=sum(
                r.workflows.wrong_proactive_resumes for r in reports
            ),
            maintenance_resumes=sum(
                r.workflows.maintenance_resumes for r in reports
            ),
        ),
        unavailable_s=sum(r.unavailable_s for r in reports),
        used_s=sum(r.used_s for r in reports),
        saved_s=sum(r.saved_s for r in reports),
        maintenance_s=sum(r.maintenance_s for r in reports),
        prediction_latencies_s=latencies,
    )


def shard_bounds(n_databases: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal shard slices ``[(lo, hi), ...]`` covering
    ``range(n_databases)`` in order."""
    if n_shards <= 0:
        raise SimulationError("n_shards must be positive")
    n_shards = min(n_shards, n_databases)
    return [
        (s * n_databases // n_shards, (s + 1) * n_databases // n_shards)
        for s in range(n_shards)
    ]


def _shard_worker(context, item) -> Tuple[KpiReport, int, int, int, int]:
    """Module-level sweep worker: simulate one shard as its own region.

    The context ships the tiny :class:`FleetShardSpec` (not the arrays);
    each worker re-materialises its slice deterministically, so every
    executor backend computes from byte-identical inputs.
    """
    spec, policy_value, config, settings = context
    lo, hi = item
    fleet = spec.materialize(lo, hi)
    result = simulate_fleet(
        fleet, PolicyKind(policy_value), config, settings
    )
    return (
        result.kpis,
        result.events_dispatched,
        result.resume_op_runs,
        result.prewarms,
        result.state_nbytes,
    )


def simulate_fleet_sharded(
    spec: Union[FleetShardSpec, DriftSpec],
    policy: Union[PolicyKind, str] = PolicyKind.PROACTIVE,
    config: ProRPConfig = DEFAULT_CONFIG,
    settings: Optional[SimulationSettings] = None,
    n_shards: int = 4,
    executor=None,
    workers: Optional[int] = None,
) -> ShardedFleetResult:
    """Split a fleet into independent region shards and merge the KPIs.

    Each shard is a self-contained region -- its own cluster (seeded from
    ``settings.seed``), metadata, histories -- so shards share no mutable
    state and any executor may run them in any order; the reports are
    merged in submission order.  Serial and multiprocess runs are
    byte-identical (`docs/fleet_scale.md` spells out why; the property
    tests enforce it).
    """
    if isinstance(policy, str):
        policy = PolicyKind(policy)
    if settings is None:
        span_end = spec.span_days * SECONDS_PER_DAY
        settings = SimulationSettings(
            eval_start=span_end - SECONDS_PER_DAY, eval_end=span_end
        )
    _check_lean_supported(policy, config, settings)
    bounds = shard_bounds(spec.n_databases, n_shards)
    backend = resolve_executor(executor, workers)
    context = (spec, policy.value, config, settings)
    rows = backend.run(_shard_worker, context, bounds)
    shard_kpis = [row[0] for row in rows]
    return ShardedFleetResult(
        policy=policy.value,
        kpis=merge_kpi_reports(shard_kpis),
        shard_kpis=shard_kpis,
        n_shards=len(bounds),
        backend=backend.name,
        events_dispatched=sum(row[1] for row in rows),
        resume_op_runs=sum(row[2] for row in rows),
        prewarms=sum(row[3] for row in rows),
        state_nbytes=sum(row[4] for row in rows),
    )
