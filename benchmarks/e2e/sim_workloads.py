"""The two simulation workloads: ``fleet_day`` and ``region_month``.

Both time whole ``simulate_*`` passes over one generated fleet.  A pass does
a fixed amount of work, so its event count and KPIs repeat exactly; passes
are repeated for ``--seconds`` and the medians are reported.  Every pass is
checked against the first one, the first one against the per-actor engine
on a slice of the same fleet, and -- at the default seed and full scale --
against the pinned digests.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

from common import (
    HERE,
    PROCESS_START,
    REFERENCE_SHARE,
    SETUP_REPEATS,
    Checks,
    assert_defaults,
    kpi_digest,
    median,
    peak_rss_mib,
    repeat_for,
)
from spans import Recorder

PINNED_PATH = HERE / "pinned_digests.json"


def _pinned(workload: str, scale: float, seed: int) -> Optional[Dict[str, str]]:
    """Digests pinned for the default seed at full scale (None otherwise)."""
    if scale != 1.0 or seed != 1 or not PINNED_PATH.is_file():
        return None
    return json.loads(PINNED_PATH.read_text(encoding="utf-8")).get(workload)


class SimRun(Checks):
    """Bookkeeping shared by the two simulation workloads."""

    def __init__(self, workload: str, opts) -> None:
        super().__init__()
        self.workload = workload
        self.opts = opts
        self.recorder: Optional[Recorder] = Recorder() if opts.trace else None

    def measure(
        self,
        one_pass: Callable[[int], None],
        install: Callable[[Recorder], None],
    ) -> Tuple[List[float], List[float]]:
        """``(untraced walls, traced walls)``: the whole budget untraced
        with ``--trace 0``; a reference share untraced, then the wrappers
        go in and the rest is traced, with ``--trace 1``."""
        seconds = self.opts.seconds
        if self.recorder is None:
            assert_defaults()
            return repeat_for(seconds, one_pass), []
        reference = repeat_for(seconds * REFERENCE_SHARE, one_pass, min_units=2)
        recorder = self.recorder
        install(recorder)

        def traced_pass(i: int) -> None:
            with recorder.window(f"{self.workload}.pass"):
                one_pass(i)

        traced = repeat_for(
            seconds * (1.0 - REFERENCE_SHARE), traced_pass, min_units=2
        )
        return reference, traced


def _share(recorder: Recorder, *names: str, own: bool = False) -> float:
    wall = recorder.wall_s
    if wall <= 0:
        return 0.0
    return (recorder.self_s(*names) if own else recorder.busy_s(*names)) / wall


def _per_pass(recorder: Recorder, passes: int, *names: str) -> float:
    return recorder.count(*names) / passes if passes else 0.0


def _sim_layers(
    run: SimRun,
    reference: List[float],
    traced: List[float],
    events: int,
    hot: Dict[str, int],
) -> Dict[str, float]:
    """Per-layer rows common to both simulation workloads.  Counts are per
    pass (they repeat exactly); shares are of the traced wall time."""
    rec = run.recorder
    assert rec is not None
    passes = len(traced)
    ref_wall = median(reference)
    lookups = hot["cache_hits"] + hot["cache_misses"]
    accounting = [n for n in rec.names if n.startswith("simulation.accounting.")]
    predict_calls = rec.count("core.predict")
    scan_names = (
        ("core.resume_scan.run_once",)
        if rec.count("core.resume_scan.run_once")
        else ("storage.metadata.scan", "core.resume_scan.prewarm")
    )
    return {
        "simulation.events": events,
        "simulation.host_us_per_event": ref_wall / events * 1e6,
        "simulation.settle.busy_share": _share(rec, "simulation.settle"),
        "simulation.run_until.self_share": _share(
            rec, "simulation.run_until", own=True
        ),
        "simulation.accounting.calls": _per_pass(rec, passes, *accounting),
        "simulation.accounting.busy_share": _share(rec, *accounting),
        "core.predict.calls": hot["full_scans"],
        "core.predict.busy_share": _share(rec, "core.predict"),
        "core.predict.us_per_call": (
            rec.busy_s("core.predict") / predict_calls * 1e6
            if predict_calls
            else 0.0
        ),
        "core.predict_fleet.calls": hot["batch_evals"],
        "core.predict_fleet.databases": hot["batch_databases"],
        "core.predict_fleet.busy_share": _share(rec, "core.predict_fleet"),
        "core.cache.hit_ratio": hot["cache_hits"] / lookups if lookups else 0.0,
        "core.resume_scan.busy_share": _share(rec, *scan_names),
        "storage.history.insert.calls": _per_pass(
            rec, passes, "storage.history.insert"
        ),
        "storage.history.insert.busy_share": _share(rec, "storage.history.insert"),
        "storage.history.trim.calls": _per_pass(rec, passes, "storage.history.trim"),
        "storage.history.trim.busy_share": _share(rec, "storage.history.trim"),
        "storage.metadata.scan.calls": _per_pass(
            rec, passes, "storage.metadata.scan"
        ),
        "storage.metadata.scan.busy_share": _share(rec, "storage.metadata.scan"),
        "storage.warm_load.busy_share": _share(rec, "storage.warm_load"),
        "cluster.allocate.calls": _per_pass(rec, passes, "cluster.allocate"),
        "cluster.allocate.busy_share": _share(rec, "cluster.allocate"),
        "tracing.overhead_share": (median(traced) - ref_wall) / ref_wall,
        "tracing.unattributed_share": rec.unattributed_s / rec.wall_s,
        "harness.units": len(reference) + len(traced),
        "harness.latency_samples": len(reference) + len(traced),
    }


def _install_common(rec: Recorder) -> None:
    """Wrappers both simulation workloads share."""
    from repro.cluster import Cluster
    from repro.core.fast_predictor import FastPredictor
    from repro.simulation.columnar import ColumnarRegionEngine

    rec.wrap_method(ColumnarRegionEngine, "run_until", "simulation.run_until")
    rec.wrap_method(
        ColumnarRegionEngine, "seed_initial_predictions", "simulation.settle"
    )
    rec.wrap_method(ColumnarRegionEngine, "prewarm", "core.resume_scan.prewarm")
    rec.wrap_method(FastPredictor, "predict", "core.predict")
    rec.wrap_method(FastPredictor, "predict_fleet", "core.predict_fleet")
    rec.wrap_method(Cluster, "allocate", "cluster.allocate")


_ACCOUNTING_METHODS = (
    "add_used",
    "add_unavailable",
    "add_idle",
    "record_login",
    "record_workflow",
    "record_proactive_outcome",
)


# ---------------------------------------------------------------------------
# fleet_day
# ---------------------------------------------------------------------------


def run_fleet_day(opts) -> Dict[str, object]:
    from repro.config import DEFAULT_CONFIG
    from repro.core.prediction_cache import HOT_PATH
    from repro.parallel import SerialExecutor
    from repro.simulation.fleet import (
        LeanAccounting,
        LeanHistory,
        LeanMetadata,
        simulate_fleet,
        simulate_fleet_sharded,
    )
    from repro.simulation.region import SimulationSettings, simulate_region
    from repro.types import SECONDS_PER_DAY as DAY
    from repro.workload.fleetgen import FleetShardSpec

    import_s = time.perf_counter() - PROCESS_START
    run = SimRun("fleet_day", opts)
    n = max(200, int(10_000 * opts.scale))
    slice_n = max(100, int(1_000 * opts.scale))
    span_days = 4
    # Two days of retention against a 4-day span: the oldest events leave
    # the window mid-run, databases turn "old", and the evaluation day
    # exercises prediction and the pre-warm scan.
    config = dataclasses.replace(DEFAULT_CONFIG, history_days=2)

    def settings(databases: int) -> SimulationSettings:
        # Node headroom (<= 48 residents of 64) so allocation never moves a
        # database and the lean bulk placement equals the sequential one.
        return SimulationSettings(
            eval_start=(span_days - 1) * DAY,
            eval_end=span_days * DAY,
            n_nodes=-(-databases // 48),
            node_capacity=64,
        )

    spec = FleetShardSpec(n_databases=n, span_days=span_days, seed=opts.seed)
    setups: List[float] = []
    generates: List[float] = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fleet = spec.materialize()
        fleet_slice = spec.materialize(0, slice_n)
        generates.append(time.perf_counter() - t0)
        # Warm-up pass (fills the predictor LRU, numpy's lazy imports); it
        # is also the lean side of the engine cross-check below.
        warm = simulate_fleet(fleet_slice, "proactive", config, settings(slice_n))
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + median(setups)

    verify_t0 = time.perf_counter()
    actor = simulate_region(
        fleet_slice.to_traces(),
        "proactive",
        config,
        dataclasses.replace(settings(slice_n), engine="actor"),
    )
    run.check(
        kpi_digest(actor.kpis()) == kpi_digest(warm.kpis),
        f"lean path != per-actor engine on the first {slice_n} databases",
    )
    verify_s = time.perf_counter() - verify_t0

    results: List[object] = []
    hot: Dict[str, int] = {}

    def one_pass(_i: int) -> None:
        HOT_PATH.reset()
        results.append(simulate_fleet(fleet, "proactive", config, settings(n)))
        hot.update(HOT_PATH.snapshot())

    def install(rec: Recorder) -> None:
        _install_common(rec)
        for method in _ACCOUNTING_METHODS:
            rec.wrap_method(
                LeanAccounting, method, f"simulation.accounting.{method}"
            )
        rec.wrap_method(LeanHistory, "record", "storage.history.insert")
        rec.wrap_method(LeanHistory, "trim", "storage.history.trim")
        rec.wrap_method(LeanMetadata, "prewarm_indices", "storage.metadata.scan")

    reference, traced = run.measure(one_pass, install)
    first = results[0]
    digest = kpi_digest(first.kpis)
    if opts.self_test == "corrupt":
        results[-1] = dataclasses.replace(
            results[-1], events_dispatched=results[-1].events_dispatched + 1
        )
    for i, result in enumerate(results):
        run.check(
            kpi_digest(result.kpis) == digest
            and result.events_dispatched == first.events_dispatched
            and result.prewarms == first.prewarms,
            f"pass {i} differs from pass 0 (simulation is not deterministic)",
        )
    pinned = _pinned("fleet_day", opts.scale, opts.seed)
    if pinned is not None:
        run.check(digest == pinned["proactive"], "KPI digest != pinned digest")

    events = first.events_dispatched
    out: Dict[str, object] = {
        "workload": "fleet_day",
        "attempted": run.attempted,
        "failed": run.failed,
        "notes": run.notes,
        "info": {
            "databases": n,
            "passes": len(results),
            "events_per_pass": events,
            "prewarms_per_pass": first.prewarms,
            "predict_calls_per_pass": hot["full_scans"],
            "kpi_digest": {"proactive": digest},
            "kpis": first.kpis.to_dict(),
        },
    }
    if run.recorder is None:
        wall = median(reference)
        out["metrics"] = {
            "setup_s": setup_s,
            "throughput_per_s": events / wall,
            "latency_p50_ms": wall * 1e3,
            "qos_percent": first.kpis.qos_percent,
            "peak_rss_mib": peak_rss_mib(),
        }
        return out

    # parallel layer: pooled shard fan-out against the serial executor on
    # the same shards (identical merged KPIs are part of the gate).
    probe_n = max(400, int(8_000 * opts.scale))
    probe_spec = FleetShardSpec(n_databases=probe_n, span_days=span_days, seed=opts.seed)
    probe_settings = settings(-(-probe_n // 4))
    t0 = time.perf_counter()
    serial = simulate_fleet_sharded(
        probe_spec, "proactive", config, probe_settings,
        n_shards=4, executor=SerialExecutor(),
    )
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pooled = simulate_fleet_sharded(
        probe_spec, "proactive", config, probe_settings, n_shards=4, workers=2
    )
    pooled_s = time.perf_counter() - t0
    run.check(
        kpi_digest(serial.kpis) == kpi_digest(pooled.kpis),
        "pooled shard merge != serial shard merge",
    )
    out["attempted"], out["failed"] = run.attempted, run.failed
    out["info"]["parallel_probe"] = {
        "databases": probe_n,
        "serial_s": serial_s,
        "pooled_s": pooled_s,
        "backend": pooled.backend,
    }

    layers = _sim_layers(run, reference, traced, events, hot)
    layers.update(
        {
            "workload.generate_s": median(generates),
            "workload.sessions": fleet.n_sessions,
            "simulation.state_mib": first.state_nbytes / 2**20,
            "simulation.idle_percent": first.kpis.idle_percent,
            "core.resume_scan.calls": first.resume_op_runs,
            "core.resume_scan.prewarms": first.prewarms,
            "parallel.pooled_over_serial": pooled_s / serial_s,
            "harness.verify_ms": verify_s * 1e3,
        }
    )
    out["metrics"] = layers
    out["recorder"] = run.recorder
    return out


# ---------------------------------------------------------------------------
# region_month
# ---------------------------------------------------------------------------


def run_region_month(opts) -> Dict[str, object]:
    from repro.config import DEFAULT_CONFIG
    from repro.core.prediction_cache import HOT_PATH
    from repro.core.resume_service import ProactiveResumeOperation
    from repro.experiments.common import ExperimentScale
    from repro.simulation.columnar import StoreAccounting
    from repro.simulation.region import SimulationSettings, simulate_region
    from repro.storage.history import HistoryStore
    from repro.storage.metadata import MetadataStore
    from repro.workload.regions import RegionPreset, generate_region_traces

    import_s = time.perf_counter() - PROCESS_START
    run = SimRun("region_month", opts)
    n = max(40, int(600 * opts.scale))
    slice_n = max(20, int(200 * opts.scale))
    scale = ExperimentScale(n_databases=n, span_days=35, eval_days=3, seed=opts.seed)
    # Table 1 knobs (h = 28 d), default cluster, default columnar engine
    # over the full stores: the path every figure driver takes.
    config = DEFAULT_CONFIG
    settings = SimulationSettings(
        eval_start=scale.eval_start, eval_end=scale.eval_end
    )

    setups: List[float] = []
    generates: List[float] = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        traces = generate_region_traces(
            RegionPreset.EU1, n, span_days=scale.span_days, seed=opts.seed
        )
        generates.append(time.perf_counter() - t0)
        warm = simulate_region(traces[:slice_n], "proactive", config, settings)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + median(setups)

    verify_t0 = time.perf_counter()
    actor = simulate_region(
        traces[:slice_n],
        "proactive",
        config,
        dataclasses.replace(settings, engine="actor"),
    )
    run.check(
        kpi_digest(actor.kpis()) == kpi_digest(warm.kpis()),
        f"columnar engine != per-actor engine on the first {slice_n} traces",
    )
    verify_s = time.perf_counter() - verify_t0

    # (reactive report, proactive report, prewarms, resume iterations,
    #  history bytes) per pass; the results themselves are dropped so only
    # one pass's stores are alive at a time.
    passes: List[Tuple[object, object, int, int, int]] = []
    hot: Dict[str, int] = {}
    captured: List[int] = []

    def one_pass(_i: int) -> None:
        HOT_PATH.reset()
        reactive = simulate_region(traces, "reactive", config, settings)
        proactive = simulate_region(traces, "proactive", config, settings)
        hot.update(HOT_PATH.snapshot())
        passes.append(
            (
                reactive.kpis(),
                proactive.kpis(),
                sum(r.batch_size for r in proactive.resume_iterations),
                len(proactive.resume_iterations),
                sum(h.size_bytes() for h in proactive.histories.values()),
            )
        )

    def install(rec: Recorder) -> None:
        from repro.simulation.columnar import ColumnarRegionEngine

        _install_common(rec)
        for method in _ACCOUNTING_METHODS:
            rec.wrap_method(
                StoreAccounting, method, f"simulation.accounting.{method}"
            )
        rec.wrap_method(HistoryStore, "insert_history", "storage.history.insert")
        rec.wrap_method(HistoryStore, "delete_old_history", "storage.history.trim")
        rec.wrap_method(HistoryStore, "bulk_load", "storage.warm_load")
        rec.wrap_method(
            MetadataStore, "databases_to_prewarm", "storage.metadata.scan"
        )
        rec.wrap_method(
            ProactiveResumeOperation, "run_once", "core.resume_scan.run_once"
        )
        # Event counts are not part of RegionSimulationResult: read them
        # off run_until's return value (traced passes only).
        traced_run_until = ColumnarRegionEngine.run_until

        def counting_run_until(self, end):
            executed = traced_run_until(self, end)
            captured.append(executed)
            return executed

        ColumnarRegionEngine.run_until = counting_run_until

    reference, traced = run.measure(one_pass, install)
    first = passes[0]
    digests = {"reactive": kpi_digest(first[0]), "proactive": kpi_digest(first[1])}
    if opts.self_test == "corrupt":
        passes[-1] = (passes[-1][0], passes[-1][0]) + passes[-1][2:]
    for i, (reactive, proactive, prewarms, _iters, _bytes) in enumerate(passes):
        run.check(
            kpi_digest(reactive) == digests["reactive"]
            and kpi_digest(proactive) == digests["proactive"]
            and prewarms == first[2],
            f"pass {i} differs from pass 0 (simulation is not deterministic)",
        )
    pinned = _pinned("region_month", opts.scale, opts.seed)
    if pinned is not None:
        run.check(digests == pinned, "KPI digests != pinned digests")

    proactive_kpis = first[1]
    # One database-day of evaluation window is the unit both arms process;
    # untraced runs cannot see the engine's event counter from outside.
    db_days = 2 * n * scale.eval_days
    out: Dict[str, object] = {
        "workload": "region_month",
        "attempted": run.attempted,
        "failed": run.failed,
        "notes": run.notes,
        "info": {
            "databases": n,
            "passes": len(passes),
            "prewarms_per_pass": first[2],
            "predict_calls_per_pass": hot["full_scans"],
            "kpi_digest": digests,
            "kpis": {
                "reactive": first[0].to_dict(),
                "proactive": proactive_kpis.to_dict(),
            },
        },
    }
    if run.recorder is None:
        wall = median(reference)
        out["metrics"] = {
            "setup_s": setup_s,
            "throughput_per_s": db_days / wall,
            "latency_p50_ms": wall * 1e3,
            "qos_percent": proactive_kpis.qos_percent,
            "peak_rss_mib": peak_rss_mib(),
        }
        return out

    # Two run_until calls (reactive, proactive) per traced pass.
    events = sum(captured[:2])
    run.check(
        all(
            sum(captured[i : i + 2]) == events
            for i in range(0, len(captured), 2)
        ),
        "event counts differ between traced passes",
    )
    out["attempted"], out["failed"] = run.attempted, run.failed
    out["info"]["events_per_pass"] = events
    layers = _sim_layers(run, reference, traced, events, hot)
    layers.update(
        {
            "workload.generate_s": median(generates),
            "workload.sessions": sum(len(t.sessions) for t in traces),
            "simulation.state_mib": first[4] / 2**20,
            "simulation.idle_percent": proactive_kpis.idle_percent,
            "core.resume_scan.calls": first[3],
            "core.resume_scan.prewarms": first[2],
            "harness.verify_ms": verify_s * 1e3,
        }
    )
    out["metrics"] = layers
    out["recorder"] = run.recorder
    return out
