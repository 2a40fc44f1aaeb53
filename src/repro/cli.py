"""Command-line interface for the ProRP reproduction.

Subcommands::

    python -m repro simulate --region EU1 --databases 200 --policy proactive
    python -m repro figures --which fig6 fig9 --databases 250
    python -m repro tune --region US1 --databases 150
    python -m repro tune-online --databases 60 --drift dst_shift
    python -m repro observe --databases 50 --chrome-trace trace.json
    python -m repro chaos --fault-rates 0.0 0.1 --check-monotonic
    python -m repro serve --port 7077
    python -m repro serve --loadgen 8 --requests-per-client 25

``simulate`` prints the KPI report of one policy on one region fleet;
``figures`` regenerates evaluation figures (tables to stdout); ``tune``
runs the training pipeline over the window/confidence grid;
``tune-online`` replaces that offline sweep with the windowed online
knob tuner + predictor bank (docs/tuning.md); ``observe``
runs one instrumented simulation and exports its trace and metrics;
``chaos`` sweeps an injected fault rate against QoS/COGS
(docs/resilience.md); ``serve`` runs the online prediction/resume
gateway (docs/serving.md) -- over TCP, as a one-shot scripted run
(``--once``), or against the built-in load generator (``--loadgen``).
``simulate``/``figures``/``tune`` also accept the export flags
(``--trace-out``, ``--metrics-out``, ``--chrome-trace``); passing any of
them turns the instrumentation on for that run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import format_table
from repro.config import ProRPConfig
from repro.core.billing import billing_report
from repro.experiments.common import ExperimentScale
from repro.observability import OBS, disable, enable, exporters
from repro.simulation.region import simulate_region
from repro.training import ParameterGrid, TrainingPipeline
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.workload.regions import RegionPreset, generate_region_traces

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR

#: figure name -> experiment runner factory (imported lazily).
FIGURES = ("fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ProRP reproduction: proactive resume and pause of "
        "resources for serverless databases (SIGMOD-Companion 2024).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one policy on one region")
    _common_fleet_args(simulate)
    _policy_args(simulate)
    _observability_args(simulate)

    figures = sub.add_parser("figures", help="regenerate evaluation figures")
    _common_fleet_args(figures)
    figures.add_argument(
        "--which",
        nargs="+",
        choices=list(FIGURES) + ["all"],
        default=["all"],
        help="which figures to regenerate",
    )
    _workers_arg(figures)
    _observability_args(figures)

    tune = sub.add_parser("tune", help="run the training pipeline")
    _common_fleet_args(tune)
    _workers_arg(tune)
    _observability_args(tune)

    tune_online = sub.add_parser(
        "tune-online",
        help="windowed online knob tuning + predictor bank against the "
        "static baseline (docs/tuning.md)",
    )
    tune_online.add_argument(
        "--databases", type=int, default=60,
        help="synthetic fleet size (columnar lean engine)",
    )
    tune_online.add_argument("--span-days", type=int, default=15)
    tune_online.add_argument("--seed", type=int, default=1)
    tune_online.add_argument(
        "--windows", type=int, default=3,
        help="aligned one-day evaluation windows to drive the tuner over",
    )
    tune_online.add_argument(
        "--start-day", type=int, default=None,
        help="day the first window opens (default: span-days - windows)",
    )
    tune_online.add_argument(
        "--policies", nargs="+", default=None, metavar="POLICY",
        help="predictor-bank policies (default: sliding hybrid_histogram); "
        "pass --no-bank to disable the bank entirely",
    )
    tune_online.add_argument(
        "--no-bank", action="store_true",
        help="run the tuner without the predictor bank (the online series "
        "is the active candidate's plain evaluation)",
    )
    tune_online.add_argument(
        "--drift",
        choices=["none", "archetype_switch", "dst_shift", "migration"],
        default="none",
        help="inject a workload drift the static baseline cannot follow",
    )
    tune_online.add_argument(
        "--drift-day", type=int, default=None,
        help="day the drift lands (default: 2/3 through the span)",
    )
    tune_online.add_argument(
        "--shift-minutes", type=int, default=60,
        help="schedule shift for dst_shift/migration drifts",
    )
    tune_online.add_argument(
        "--state-dir", metavar="PATH", default=None,
        help="journal tuner decisions to a WAL + checkpoints here; an "
        "existing directory is recovered and the run resumes from the "
        "first un-journaled window (docs/durability.md)",
    )
    _workers_arg(tune_online)
    _observability_args(tune_online)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection sweep: fault rate vs QoS/COGS "
        "(see docs/resilience.md)",
    )
    _common_fleet_args(chaos)
    _workers_arg(chaos)
    chaos.add_argument(
        "--fault-rates",
        type=float,
        nargs="+",
        default=None,
        help="per-consultation fault probabilities to sweep "
        "(default: 0.0 0.02 0.05 0.1)",
    )
    chaos.add_argument(
        "--points",
        nargs="+",
        default=None,
        metavar="POINT",
        help="fault points for the uniform sweep plan "
        "(default: predictor.exception resume.scan.unavailable "
        "cluster.node.crash)",
    )
    chaos.add_argument(
        "--plan",
        metavar="PATH",
        default=None,
        help="JSON fault plan file; replaces the rate sweep with a single "
        "run of exactly this plan",
    )
    chaos.add_argument(
        "--check-monotonic",
        action="store_true",
        help="exit non-zero unless QoS is non-increasing as the fault "
        "rate grows (0.5pp slack per step for sampling noise)",
    )
    chaos.add_argument(
        "--slo-scenario",
        action="store_true",
        help="run the SLO alerting scenario instead of the rate sweep: "
        "a scheduled predictor outage + latency spike must fire and "
        "clear the stock alerts, and the replayed KPI series must "
        "reconcile with the KPI report and the traces' login count "
        "(docs/observability.md)",
    )
    chaos.add_argument(
        "--crash-recovery",
        action="store_true",
        help="run the control-plane crash-recovery scenario instead of "
        "the rate sweep: kill the durable workflow engine at a random "
        "journal append mid-day, recover from WAL + checkpoint, and "
        "require byte-identical KPI reports and per-database outcome "
        "ledgers with every workflow executed exactly once "
        "(docs/durability.md)",
    )
    chaos.add_argument(
        "--crash-mode",
        choices=["crash", "torn", "corrupt"],
        default=None,
        help="with --crash-recovery: how the journal append dies "
        "(default: seeded random choice)",
    )

    digest = sub.add_parser(
        "digest", help="full operator report: all policies + drill-downs"
    )
    _common_fleet_args(digest)

    observe = sub.add_parser(
        "observe",
        help="run one instrumented simulation; print the live metrics "
        "snapshot and export the trace",
    )
    _common_fleet_args(observe)
    _policy_args(observe)
    _observability_args(observe)
    observe.add_argument(
        "--top",
        action="store_true",
        help="replay the finished run through the stock SLO rule set and "
        "print the 'observe top' dashboard (windowed sparklines + alert ledger) "
        "instead of the flat metrics snapshot",
    )

    serve = sub.add_parser(
        "serve",
        help="run the online prediction/resume gateway "
        "(see docs/serving.md)",
    )
    serve.add_argument(
        "--region",
        choices=[preset.value for preset in RegionPreset],
        default="EU1",
    )
    serve.add_argument(
        "--databases", type=int, default=40,
        help="synthetic fleet size registered with the gateway",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7077,
        help="TCP port (0 picks a free port)",
    )
    serve.add_argument(
        "--once", action="store_true",
        help="serve one scripted request batch in-process, then shut "
        "down cleanly (no TCP listener)",
    )
    serve.add_argument(
        "--loadgen", type=int, default=0, metavar="CLIENTS",
        help="drive the in-process gateway with a closed-loop load "
        "generator instead of listening on TCP",
    )
    serve.add_argument(
        "--requests-per-client", type=int, default=25,
        help="closed-loop requests each --loadgen client issues",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=256,
        help="admission bound on queued + in-flight requests",
    )
    serve.add_argument(
        "--max-batch-size", type=int, default=64,
        help="micro-batcher flush size (1 disables batching)",
    )
    serve.add_argument(
        "--tenant-rate", type=float, default=0.0,
        help="per-tenant token-bucket rate in requests/s (0 = unlimited)",
    )
    serve.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="worker processes for the shared-nothing sharded tier "
        "(consistent-hash router + shared-memory history arena); 1 runs "
        "the classic in-process gateway (docs/serving.md)",
    )
    serve.add_argument(
        "--router-window", type=int, default=32,
        help="with --shards > 1: outstanding-request window per worker "
        "connection before the router sheds Overloaded",
    )
    serve.add_argument(
        "--replicas", type=int, default=2,
        help="with --shards > 1: ring replica candidates tried per "
        "region before shedding",
    )
    _observability_args(serve)
    serve.add_argument(
        "--openmetrics-out", metavar="PATH", default=None,
        help="with --once: issue a 'metrics' request after the scripted "
        "batch and write its OpenMetrics body to PATH (implies "
        "observability on)",
    )
    serve.add_argument(
        "--state-dir", metavar="PATH", default=None,
        help="durable control-plane directory: resume-scan pre-warms are "
        "journaled as PROACTIVE_RESUME workflows to a WAL here, stop() "
        "checkpoints it, and an existing directory is recovered on "
        "startup (docs/durability.md)",
    )
    return parser


def _policy_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy",
        choices=["reactive", "proactive", "optimal", "provisioned"],
        default="proactive",
    )
    parser.add_argument(
        "--confidence", type=float, default=0.1, help="threshold c (Table 1)"
    )
    parser.add_argument(
        "--window-hours", type=float, default=7.0, help="window size w"
    )


def _observability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write completed spans as JSONL (one span per line)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the metrics snapshot (JSON when PATH ends in .json, "
        "plain text otherwise)",
    )
    parser.add_argument(
        "--chrome-trace", metavar="PATH", default=None,
        help="write a Chrome trace-event file (open in chrome://tracing "
        "or Perfetto)",
    )


def _common_fleet_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--region",
        choices=[preset.value for preset in RegionPreset],
        default="EU1",
    )
    parser.add_argument("--databases", type=int, default=200)
    parser.add_argument("--eval-days", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)


def _workers_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep (1 = serial; results are "
        "identical for any worker count)",
    )


def _scale(args: argparse.Namespace) -> ExperimentScale:
    return ExperimentScale(
        n_databases=args.databases, eval_days=args.eval_days, seed=args.seed
    )


def _simulate(args: argparse.Namespace, **settings):
    """The run ``simulate`` prints: ``(traces, result)``."""
    scale = _scale(args)
    traces = generate_region_traces(
        RegionPreset(args.region), args.databases, span_days=scale.span_days,
        seed=args.seed,
    )
    config = ProRPConfig(
        confidence=args.confidence, window_s=int(args.window_hours * HOUR)
    )
    result = simulate_region(traces, args.policy, config, scale.settings(**settings))
    _print_kpi_table(args, result)
    return traces, result


def cmd_simulate(args: argparse.Namespace) -> int:
    _simulate(args)
    return 0


def _print_kpi_table(args: argparse.Namespace, result) -> None:
    kpis = result.kpis()
    billing = billing_report(kpis)
    print(
        format_table(
            ["metric", "value"],
            [
                ["policy", kpis.policy],
                ["databases", kpis.n_databases],
                ["QoS % (logins served)", round(kpis.qos_percent, 2)],
                ["idle % of fleet time", round(kpis.idle_percent, 2)],
                ["  logical pause %", round(kpis.idle_logical_pause_percent, 2)],
                ["  correct pre-warm %", round(kpis.idle_correct_proactive_percent, 2)],
                ["  wrong pre-warm %", round(kpis.idle_wrong_proactive_percent, 2)],
                ["unavailable %", round(kpis.unavailable_percent, 3)],
                ["reactive resumes", kpis.workflows.reactive_resumes],
                ["proactive resumes", kpis.workflows.proactive_resumes],
                ["physical pauses", kpis.workflows.physical_pauses],
                ["allocation efficiency", round(billing.allocation_efficiency, 3)],
            ],
            title=f"{args.region}: {args.databases} databases, "
            f"{args.eval_days}-day evaluation",
        )
    )


def cmd_observe(args: argparse.Namespace) -> int:
    """One instrumented run: KPI table plus the live metrics snapshot.

    ``main`` has already enabled observability; the exports happen there
    so they also cover ``simulate``/``figures``/``tune`` with the flags.
    With ``--top`` the finished run is replayed through the stock SLO
    rule set and summarised as the ``observe top`` dashboard.
    """
    traces, result = _simulate(args, collect_timelines=args.top)
    print()
    if args.top:
        from repro.observability import SloMonitor, render_top, simulation_slos
        from repro.report import replay_slos

        monitor = SloMonitor(OBS.metrics, simulation_slos())
        replay_slos(result, traces, monitor)
        print(render_top(
            OBS.metrics,
            ledger=monitor.ledger,
            title=f"{args.region} {args.policy} observe top",
        ))
    else:
        print(OBS.metrics.format_snapshot(
            title=f"{args.region} {args.policy} live metrics"
        ))
    spans = OBS.tracer.spans
    if spans:
        total_ms = max(s.start_ns + s.duration_ns for s in spans) / 1e6
        print(f"\n{len(spans)} spans recorded over {total_ms:.1f} ms")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    which = list(FIGURES) if "all" in args.which else args.which
    scale = _scale(args)
    for name in which:
        result = _run_figure(name, scale, workers=args.workers)
        print(result.table())
        print()
    return 0


def _run_figure(name: str, scale: ExperimentScale, workers: int = 1):
    # fig3 (trace statistics) and fig10 (one instrumented run) have no
    # sweep to fan out; every other driver takes ``workers``.
    if name == "fig3":
        from repro.experiments.fig3 import run_fig3

        return run_fig3(scale)
    if name == "fig6":
        from repro.experiments.fig6 import run_fig6

        return run_fig6(scale, workers=workers)
    if name == "fig7":
        from repro.experiments.fig7 import run_fig7

        return run_fig7(scale, workers=workers)
    if name == "fig8":
        from repro.experiments.fig8 import run_fig8

        return run_fig8(scale, workers=workers)
    if name == "fig9":
        from repro.experiments.fig9 import run_fig9

        return run_fig9(scale, workers=workers)
    if name == "fig10":
        from repro.experiments.fig10 import run_fig10

        return run_fig10(scale.smaller(scale.n_databases, eval_days=1))
    if name == "fig11":
        from repro.experiments.fig11 import run_fig11

        return run_fig11(scale, workers=workers)
    if name == "fig12":
        from repro.experiments.fig12 import run_fig12

        return run_fig12(scale, workers=workers)
    raise ValueError(f"unknown figure {name!r}")  # pragma: no cover


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos import (
        DEFAULT_FAULT_RATES,
        DEFAULT_POINTS,
        run_chaos,
        run_slo_chaos,
    )
    from repro.faults import FaultPlan

    if args.crash_recovery:
        from repro.experiments.crash_recovery import run_crash_recovery

        result = run_crash_recovery(
            scale=_scale(args),
            preset=RegionPreset(args.region),
            crash_mode=args.crash_mode,
            seed=args.seed,
        )
        print(result.table())
        if not result.ok:
            print(
                "FAIL: crash recovery diverged "
                f"(crashed={result.crashed}, "
                f"reports_identical={result.reports_identical}, "
                f"ledgers_identical={result.ledgers_identical}, "
                f"exactly_once={result.exactly_once}, "
                f"none_lost={result.none_lost})"
            )
            return 1
        print(
            "OK: recovered run byte-identical to uninterrupted run; "
            "every workflow executed exactly once"
        )
        return 0

    if args.slo_scenario:
        result = run_slo_chaos(
            scale=_scale(args), preset=RegionPreset(args.region)
        )
        print(result.table())
        if not result.ok:
            print("FAIL: SLO chaos scenario did not round-trip")
            return 1
        print(
            "OK: alerts fired and cleared; replayed == batch totals "
            f"({result.trace_logins} logins, as counted from the traces)"
        )
        return 0

    plan = FaultPlan.load(args.plan) if args.plan else None
    result = run_chaos(
        scale=_scale(args),
        preset=RegionPreset(args.region),
        fault_rates=tuple(args.fault_rates or DEFAULT_FAULT_RATES),
        points=tuple(args.points or DEFAULT_POINTS),
        plan=plan,
        workers=args.workers,
    )
    print(result.table())
    if args.check_monotonic:
        if plan is not None or len(result.rows()) < 2:
            print("--check-monotonic needs a rate sweep of >= 2 rates")
            return 2
        if not result.qos_monotonic(tolerance=0.5):
            print("FAIL: QoS did not degrade monotonically with fault rate")
            return 1
        print("OK: QoS non-increasing across the fault-rate sweep")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    scale = _scale(args)
    traces = generate_region_traces(
        RegionPreset(args.region), args.databases, span_days=scale.span_days,
        seed=args.seed,
    )
    pipeline = TrainingPipeline(traces, scale.settings())
    from repro.tuning.candidates import validate_knob_candidates

    grid_values = {
        "window_s": [2 * HOUR, 5 * HOUR, 7 * HOUR],
        "confidence": [0.1, 0.3, 0.5],
    }
    # Same validation path as tune-online: bad knob names or values fail
    # here, at configuration time, not deep inside the sweep.
    validate_knob_candidates(ProRPConfig(), grid_values)
    grid = ParameterGrid(grid_values)
    report = pipeline.run(ProRPConfig(), grid, workers=args.workers)
    rows = [
        [
            candidate.config.window_s // HOUR,
            candidate.config.confidence,
            round(candidate.kpis.qos_percent, 1),
            round(candidate.kpis.idle_percent, 2),
            round(candidate.score, 1),
        ]
        for candidate in report.candidates
    ]
    print(
        format_table(
            ["window (h)", "confidence", "QoS %", "idle %", "score"],
            rows,
            title=f"Training sweep on {args.region}",
        )
    )
    best = report.best.config
    print(
        f"\nselected: window = {best.window_s // HOUR}h, "
        f"confidence = {best.confidence}"
    )
    return 0


def cmd_tune_online(args: argparse.Namespace) -> int:
    """Drive the online knob tuner + predictor bank and print the
    per-window decision log alongside the online-vs-static verdict."""
    from pathlib import Path

    from repro.config import DEFAULT_CONFIG
    from repro.simulation.region import SimulationSettings
    from repro.tuning.bank import BANK_POLICIES
    from repro.tuning.candidates import candidate_population, default_candidates
    from repro.tuning.controller import OnlineKnobTuner
    from repro.tuning.driver import run_online_tuning
    from repro.tuning.metrics import register_tuning_metrics
    from repro.workload.fleetgen import DriftSpec, FleetShardSpec

    if args.windows < 1:
        print("--windows must be >= 1")
        return 2
    start_day = (
        args.start_day
        if args.start_day is not None
        else max(1, args.span_days - args.windows)
    )
    if start_day + args.windows > args.span_days:
        print(
            f"--start-day {start_day} + --windows {args.windows} overruns "
            f"the {args.span_days}-day span"
        )
        return 2
    base = FleetShardSpec(
        n_databases=args.databases, span_days=args.span_days, seed=args.seed
    )
    fleet = base
    if args.drift != "none":
        drift_day = (
            args.drift_day
            if args.drift_day is not None
            else args.span_days * 2 // 3
        )
        fleet = DriftSpec(
            base,
            kind=args.drift,
            at_day=drift_day,
            shift_minutes=args.shift_minutes,
        )
    if OBS.enabled:
        register_tuning_metrics(OBS.metrics)
    # Clamp the baseline's history to the synthetic span: with the
    # production 28-day retention every database on a short fleet would
    # stay "new" (unpredictable, Section 4) and both arms would score a
    # meaningless 0.
    baseline = DEFAULT_CONFIG.with_overrides(
        history_days=min(
            DEFAULT_CONFIG.history_days, max(2, args.span_days // 2)
        )
    )
    challengers = tuple(
        candidate_population(baseline, default_candidates(baseline))
    )
    policies: tuple = ()
    if not args.no_bank:
        policies = tuple(args.policies or BANK_POLICIES)
    tuner = None
    if args.state_dir and (Path(args.state_dir) / "wal").exists():
        tuner = OnlineKnobTuner.recover(baseline, challengers, args.state_dir)
        print(
            f"recovered tuner from {args.state_dir}: resuming at window "
            f"{tuner.expected_window}, active candidate {tuner.active_index}"
        )
    report = run_online_tuning(
        fleet,
        baseline,
        challengers,
        n_windows=args.windows,
        settings=SimulationSettings(
            eval_start=start_day * DAY, eval_end=(start_day + 1) * DAY
        ),
        policies=policies,
        online_warmup_s=3 * DAY,
        state_dir=args.state_dir,
        tuner=tuner,
        workers=args.workers,
    )
    rows = []
    for outcome in report.windows:
        decision = outcome.decision
        event = "-"
        if decision.promoted is not None:
            event = f"promoted #{decision.promoted}"
        elif decision.demoted:
            event = "demoted to baseline"
        elif decision.pruned:
            event = f"pruned {list(decision.pruned)}"
        rows.append(
            [
                outcome.window,
                decision.active,
                len(decision.alive),
                round(outcome.online_score, 2),
                round(outcome.static_score, 2),
                event,
            ]
        )
    print(
        format_table(
            ["window", "active", "alive", "online", "static", "event"],
            rows,
            title=f"online tuning: {args.databases} databases, "
            f"{len(challengers)} challengers, drift={args.drift}",
        )
    )
    print(
        f"\nonline {report.online_score:.2f} vs static "
        f"{report.static_score:.2f} "
        f"(QoS {report.online_kpis.qos_percent:.1f}% vs "
        f"{report.static_kpis.qos_percent:.1f}%, idle "
        f"{report.online_kpis.idle_percent:.1f}% vs "
        f"{report.static_kpis.idle_percent:.1f}%) -- "
        + ("online dominates" if report.dominates_static else "static wins")
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal

    from repro.serving import (
        HealthRequest,
        MetricsRequest,
        PredictionServer,
        PredictRequest,
        ResumeScanRequest,
        ServingSettings,
        closed_loop,
        encode_response,
        fleet_login_arrays,
        serve_tcp,
    )

    now = 29 * DAY
    settings = ServingSettings(
        max_queue_depth=args.queue_depth,
        max_batch_size=args.max_batch_size,
        tenant_rate=args.tenant_rate,
    )
    fleets = fleet_login_arrays(
        RegionPreset(args.region),
        args.databases,
        now=now,
        seed=args.seed,
    )

    if args.shards > 1:
        return _cmd_serve_sharded(args, settings, fleets, now)

    def build_server() -> PredictionServer:
        slo_monitor = None
        if OBS.enabled:
            from repro.observability import SloMonitor, serving_slos

            slo_monitor = SloMonitor(OBS.metrics, serving_slos())
        control_plane = None
        if args.state_dir:
            from repro.controlplane.durability import (
                DurableWorkflowEngine,
                segment_paths,
            )

            if segment_paths(args.state_dir):
                control_plane = DurableWorkflowEngine.recover(args.state_dir)
                info = control_plane.recovery_info
                print(
                    f"recovered control plane from {args.state_dir}: "
                    f"{len(control_plane.workflows)} workflows "
                    f"({info['replayed']} replayed past checkpoint "
                    f"lsn {info['checkpoint_lsn']})"
                )
            else:
                control_plane = DurableWorkflowEngine(args.state_dir)
        server = PredictionServer(
            settings=settings,
            slo_monitor=slo_monitor,
            control_plane=control_plane,
        )
        for i, logins in enumerate(fleets):
            server.register_database(
                args.region, f"db-{i}", logins, paused=True
            )
        return server

    async def run_once() -> int:
        """The scripted smoke run: a batchable predict burst, one
        deliberately expired deadline (exercising the shed path), one
        resume scan, one health probe."""
        server = build_server()
        requests = [
            PredictRequest(
                f"predict-{i}",
                tuple(fleets[i % len(fleets)]),
                now,
                region=args.region,
            )
            for i in range(min(4, len(fleets)))
        ]
        requests.append(
            PredictRequest(
                "predict-expired",
                tuple(fleets[0]),
                now,
                region=args.region,
                deadline_ms=0.0,
            )
        )
        requests.append(ResumeScanRequest("scan-0", now, region=args.region))
        requests.append(HealthRequest("health-0"))
        if args.openmetrics_out:
            requests.append(MetricsRequest("metrics-0"))
        responses = await server.serve_script(requests)
        for response in responses:
            doc = encode_response(response)
            if args.openmetrics_out and doc.get("type") == "metrics":
                with open(args.openmetrics_out, "w", encoding="utf-8") as fh:
                    fh.write(doc["body"])
                print(
                    f"wrote {doc['metric_count']} metric families to "
                    f"{args.openmetrics_out}"
                )
                continue
            print(json.dumps(doc))
        print(f"served {server.stats.served} requests; shut down cleanly")
        return 0

    async def run_loadgen() -> int:
        server = build_server()
        await server.start()
        report = await closed_loop(
            server,
            fleets,
            now,
            clients=args.loadgen,
            requests_per_client=args.requests_per_client,
            region=args.region,
            seed=args.seed,
        )
        await server.stop()
        summary = report.summary()
        print(
            format_table(
                ["metric", "value"],
                [[k, v] for k, v in summary.items()],
                title=f"closed-loop {args.loadgen} clients on "
                f"{len(fleets)} databases",
            )
        )
        print("shut down cleanly")
        return 0

    async def run_tcp() -> int:
        server = build_server()
        listener = await serve_tcp(server, host=args.host, port=args.port)
        host, port = listener.sockets[0].getsockname()[:2]
        print(f"serving JSON-over-TCP on {host}:{port} (Ctrl-C to drain)")
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop_event.set)
        await stop_event.wait()
        listener.close()
        await listener.wait_closed()
        await server.stop()
        print(
            f"served {server.stats.served} requests, "
            f"shed {server.admission.total_shed()}; shut down cleanly"
        )
        return 0

    if args.once:
        return asyncio.run(run_once())
    if args.loadgen > 0:
        return asyncio.run(run_loadgen())
    return asyncio.run(run_tcp())


def _cmd_serve_sharded(args, settings, fleets, now: int) -> int:
    """``serve --shards N``: the multi-process tier.  The synthetic
    fleet is partitioned into sub-regions (the consistent-hash shard
    key), registered into a shared-memory arena, and served by N spawned
    workers behind the router."""
    import asyncio
    import json
    import signal

    from repro.serving import (
        HealthRequest,
        MetricsRequest,
        PredictRequest,
        ResumeScanRequest,
        closed_loop,
        encode_response,
        serve_tcp,
    )
    from repro.serving.sharded import RouterSettings, ShardRouter

    database_ids = [f"db-{i}" for i in range(len(fleets))]
    # Enough sub-regions that every worker owns some shards; each
    # database's requests carry its sub-region so routing is stable.
    n_partitions = max(8, args.shards * 4)
    regions = [
        f"{args.region}-s{i % n_partitions}" for i in range(len(fleets))
    ]
    fleet: dict = {}
    for database_id, logins, region in zip(database_ids, fleets, regions):
        fleet.setdefault(region, []).append((database_id, logins, True))
    router = ShardRouter.build(
        fleet,
        n_workers=args.shards,
        worker_settings=settings,
        settings=RouterSettings(
            window=args.router_window, replicas=args.replicas
        ),
    )

    async def run_once() -> int:
        requests = [
            PredictRequest(
                f"predict-{i}",
                (),
                now,
                region=regions[i],
                database_id=database_ids[i],
            )
            for i in range(min(4, len(database_ids)))
        ]
        requests.append(
            ResumeScanRequest("scan-0", now, region=regions[0])
        )
        requests.append(HealthRequest("health-0"))
        if args.openmetrics_out:
            requests.append(MetricsRequest("metrics-0"))
        responses = await router.serve_script(requests)
        for response in responses:
            doc = encode_response(response)
            if args.openmetrics_out and doc.get("type") == "metrics":
                with open(args.openmetrics_out, "w", encoding="utf-8") as fh:
                    fh.write(doc["body"])
                print(
                    f"wrote {doc['metric_count']} metric families "
                    f"(merged across {args.shards} workers) to "
                    f"{args.openmetrics_out}"
                )
                continue
            print(json.dumps(doc))
        print(
            f"routed {router.stats.routed} requests across "
            f"{args.shards} workers; shut down cleanly"
        )
        return 0

    async def run_loadgen() -> int:
        await router.start()
        report = await closed_loop(
            router,
            fleets,
            now,
            clients=args.loadgen,
            requests_per_client=args.requests_per_client,
            seed=args.seed,
            database_ids=database_ids,
            regions=regions,
        )
        await router.stop()
        summary = report.summary()
        summary["router_shed_overloaded"] = router.stats.shed_overloaded
        summary["router_max_outstanding"] = router.stats.max_outstanding
        print(
            format_table(
                ["metric", "value"],
                [[k, v] for k, v in summary.items()],
                title=f"closed-loop {args.loadgen} clients, "
                f"{args.shards} workers, {len(fleets)} databases",
            )
        )
        print("shut down cleanly")
        return 0

    async def run_tcp() -> int:
        listener = await serve_tcp(router, host=args.host, port=args.port)
        host, port = listener.sockets[0].getsockname()[:2]
        print(
            f"serving JSON-over-TCP on {host}:{port} via {args.shards} "
            f"workers (Ctrl-C to drain)"
        )
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop_event.set)
        await stop_event.wait()
        listener.close()
        await listener.wait_closed()
        await router.stop()
        print(
            f"routed {router.stats.routed} requests, shed "
            f"{router.stats.shed_overloaded} at the router; "
            f"shut down cleanly"
        )
        return 0

    if args.once:
        return asyncio.run(run_once())
    if args.loadgen > 0:
        return asyncio.run(run_loadgen())
    return asyncio.run(run_tcp())


def cmd_digest(args: argparse.Namespace) -> int:
    from repro.report import region_digest

    scale = _scale(args)
    traces = generate_region_traces(
        RegionPreset(args.region), args.databases, span_days=scale.span_days,
        seed=args.seed,
    )
    print(
        region_digest(
            traces,
            scale.settings(),
            title=f"{args.region}: {args.databases} databases, "
            f"{args.eval_days}-day window",
        )
    )
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "simulate":
        return cmd_simulate(args)
    if args.command == "observe":
        return cmd_observe(args)
    if args.command == "figures":
        return cmd_figures(args)
    if args.command == "tune":
        return cmd_tune(args)
    if args.command == "tune-online":
        return cmd_tune_online(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "digest":
        return cmd_digest(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    chrome_trace = getattr(args, "chrome_trace", None)
    openmetrics_out = getattr(args, "openmetrics_out", None)
    observing = args.command == "observe" or any(
        (trace_out, metrics_out, chrome_trace, openmetrics_out)
    )
    if not observing:
        return _dispatch(args)
    runtime = enable()
    try:
        status = _dispatch(args)
        if trace_out:
            n = exporters.write_spans_jsonl(runtime.tracer.spans, trace_out)
            print(f"wrote {n} spans to {trace_out}")
        if chrome_trace:
            n = exporters.write_chrome_trace(runtime.tracer.spans, chrome_trace)
            print(f"wrote {n} trace events to {chrome_trace}")
        if metrics_out:
            exporters.write_metrics_snapshot(
                runtime.metrics, metrics_out, title=f"repro {args.command}"
            )
            print(f"wrote {len(runtime.metrics)} metrics to {metrics_out}")
        return status
    finally:
        disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
