"""Fleet-scale simulation: lean columnar backends and region sharding.

The columnar engine (:mod:`repro.simulation.columnar`) separates the FSM
replay from its storage backends.  ``simulate_region`` keeps one
:class:`~repro.simulation.results.DatabaseOutcome` per database -- the
per-database ledgers the paper's figures read -- which allocates millions
of Python objects at fleet scale.  This module swaps in **lean** backends
with the same observable semantics:

* :class:`~repro.storage.history.LeanHistory` (on both tiers whenever
  the vectorised predictor reads the history) -- per-database login
  cursors over one flat ``int64`` array, replaying Algorithm 2/3
  (timestamp-dedup inserts, witness-preserving trims) without a table,
  warm-started from
  :func:`~repro.storage.history.warm_start_events`;
* :class:`~repro.simulation.columnar.LeanMetadata` (shared with
  ``simulate_region``) -- the ``sys.databases`` columns as arrays, with
  Algorithm 5's scan as one masked pass ordered like the secondary index;
* :class:`LeanAccounting` -- region-total KPI accumulators replacing
  per-database outcome objects (the :func:`~repro.simulation.results.
  aggregate` sums commute with per-call accumulation).

``simulate_fleet`` runs one region this way, through ``simulate_region``'s
driver body (:func:`~repro.simulation.columnar.run_columnar_region`);
``simulate_fleet_sharded`` splits a fleet into independent regions
across the :mod:`repro.parallel` executors and merges the per-shard KPI
reports in submission order, so serial and sharded runs are
byte-identical (see docs/fleet_scale.md for the determinism argument).
Fault injection is rejected here: the injector is process-global, so its
consult ledger cannot survive a fan-out unchanged -- chaos experiments
stay on ``simulate_region``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, ProRPConfig
from repro.core.kpi import IdleBreakdown, KpiReport, LoginStats, WorkflowCounts
from repro.core.policy import PolicyKind
from repro.errors import SimulationError
from repro.faults.runtime import FAULTS
from repro.parallel import resolve_executor
from repro.simulation.columnar import (  # noqa: F401 (LeanMetadata: re-exported)
    LeanMetadata,
    run_columnar_region,
)
from repro.simulation.region import SimulationSettings
from repro.storage.history import LeanHistory
from repro.types import SECONDS_PER_DAY
from repro.workload.fleetgen import DriftSpec, FleetShardSpec, FleetSlice


class LeanAccounting:
    """Region-total KPI accumulators with :class:`DatabaseOutcome`'s
    clipping semantics.

    Every ``add_*`` clips to the evaluation window and every ``record_*``
    filters on it exactly like the per-database outcome objects; since
    :func:`repro.simulation.results.aggregate` only ever sums outcome
    fields, accumulating region totals per call yields the identical
    :class:`KpiReport` -- proven by the lean-vs-full equivalence tests.
    """

    __slots__ = (
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

    def __init__(self, n: int, eval_start: int, eval_end: int):
        self.n = n
        self.eval_start = eval_start
        self.eval_end = eval_end
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

    # The window clip and test are inlined: these run once per event.

    def add_used(self, d: int, start: int, end: int) -> None:
        lo = start if start > self.eval_start else self.eval_start
        hi = end if end < self.eval_end else self.eval_end
        if hi > lo:
            self.used_s += hi - lo

    def add_unavailable(self, d: int, start: int, end: int) -> None:
        lo = start if start > self.eval_start else self.eval_start
        hi = end if end < self.eval_end else self.eval_end
        if hi > lo:
            self.unavailable_s += hi - lo

    def add_idle(self, d: int, start: int, end: int, cause: str) -> None:
        lo = start if start > self.eval_start else self.eval_start
        hi = end if end < self.eval_end else self.eval_end
        clipped = hi - lo if hi > lo else 0
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
        if not self.eval_start <= t < self.eval_end:
            return
        if served:
            self.logins_with_resources += 1
        else:
            self.logins_reactive += 1
            if faulted:
                self.logins_reactive_faulted += 1

    def record_workflow(self, d: int, t: int, kind: str) -> None:
        if not self.eval_start <= t < self.eval_end:
            return
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
        if not self.eval_start <= t < self.eval_end:
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


def _check_lean_supported(policy: PolicyKind, settings: SimulationSettings) -> None:
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


def _last_day(span_end: int) -> SimulationSettings:
    """Both fleet drivers' default window: the day ending at ``span_end``."""
    return SimulationSettings(
        eval_start=span_end - SECONDS_PER_DAY, eval_end=span_end
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
    ``settings`` defaults to the last day of a spec's span or a slice's.
    """
    if isinstance(policy, str):
        policy = PolicyKind(policy)
    if isinstance(fleet, (FleetShardSpec, DriftSpec)):
        if settings is None:
            settings = _last_day(fleet.span_days * SECONDS_PER_DAY)
        fleet = fleet.materialize()
    if settings is None:
        span_end = int(fleet.ends.max()) if fleet.n_sessions else SECONDS_PER_DAY
        settings = _last_day(span_end)
    _check_lean_supported(policy, settings)

    n = fleet.n
    acct = LeanAccounting(n, settings.eval_start, settings.eval_end)
    empty = np.empty(0, dtype=np.int64)
    engine, iterations = run_columnar_region(
        (fleet.sess_offsets, fleet.starts, fleet.ends),
        (np.zeros(n + 1, dtype=np.int64), empty, empty),
        np.asarray(fleet.created_at, dtype=np.int64),
        fleet.ids,
        acct,
        policy,
        config,
        settings,
        preplace=True,
    )

    nbytes = engine.s.nbytes()
    if isinstance(engine.hist, LeanHistory):
        nbytes += engine.hist.nbytes()
    return FleetSimulationResult(
        policy=policy.value,
        settings=settings,
        config=config,
        kpis=acct.report(policy.value),
        n_databases=n,
        events_dispatched=engine.events_dispatched,
        resume_op_runs=len(iterations),
        prewarms=sum(record.batch_size for record in iterations),
        state_nbytes=nbytes,
    )


def merge_kpi_reports(reports: Sequence[KpiReport]) -> KpiReport:
    """Sum per-shard KPI reports into one region-style report.

    Every :class:`KpiReport` count and duration is a sum over databases,
    so merging shards is pure field-wise addition, order-independent in
    value; callers merge in submission order all the same.
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

    def total(parts, name):
        return sum(getattr(part, name) for part in parts)

    def merged(name):
        parts = [getattr(report, name) for report in reports]
        return type(parts[0])(
            **{f.name: total(parts, f.name) for f in fields(parts[0])}
        )

    sums = ("n_databases", "unavailable_s", "used_s", "saved_s", "maintenance_s")
    return KpiReport(
        policy=head.policy,
        eval_start=head.eval_start,
        eval_end=head.eval_end,
        logins=merged("logins"),
        idle=merged("idle"),
        workflows=merged("workflows"),
        **{name: total(reports, name) for name in sums},
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
        settings = _last_day(spec.span_days * SECONDS_PER_DAY)
    _check_lean_supported(policy, settings)
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
