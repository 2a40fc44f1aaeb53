"""Region operations: tuning the resume-operation frequency and surviving
stuck workflows.

Two operator scenarios from Sections 7 and 9.3:

1. How often should the proactive resume operation run?  Sweep the period
   and look at the pre-warm batch per iteration (the Figure 11 decision:
   production picks one minute so batches stay manageable).
2. What happens when resume workflows get stuck?  Feed a pre-warm storm
   through the control-plane workflow engine with fault injection and let
   the diagnostics runner mitigate and escalate (Section 7).

Run:  python examples/region_operations.py
"""

from repro.analysis import box_plot_summary, format_table
from repro.config import ProRPConfig
from repro.controlplane import DiagnosticsRunner, WorkflowEngine, WorkflowKind
from repro.simulation import SimulationSettings, simulate_region
from repro.types import SECONDS_PER_DAY as DAY, SECONDS_PER_MINUTE as MIN
from repro.workload import RegionPreset, generate_region_traces


def frequency_sweep(traces) -> None:
    settings = SimulationSettings(eval_start=31 * DAY, eval_end=32 * DAY)
    rows = []
    for minutes in (1, 5, 15):
        config = ProRPConfig(resume_operation_period_s=minutes * MIN)
        result = simulate_region(traces, "proactive", config, settings)
        summary = box_plot_summary(result.prewarm_batch_sizes())
        rows.append([minutes, summary.median, summary.q3, summary.maximum])
    print(
        format_table(
            ["period (min)", "batch median", "batch q3", "batch max"],
            rows,
            title="Pre-warm batch size per resume-operation iteration",
        )
    )
    print(
        "Longer periods batch more databases per iteration; production\n"
        "runs every minute to keep the scaling mechanisms within budget.\n"
    )


def workflow_storm() -> None:
    engine = WorkflowEngine(
        max_concurrent=25,
        default_duration_s=45,
        stuck_probability=0.08,  # injected faults
        seed=11,
    )
    runner = DiagnosticsRunner(engine, stuck_after_s=120, max_retries=2)
    # A burst of 300 pre-warm workflows lands within five minutes.
    for i in range(300):
        engine.submit(WorkflowKind.PROACTIVE_RESUME, f"db-{i:03d}", now=i)
    now = 0
    while not runner.queues_drained() and now < 100_000:
        engine.tick(now)
        runner.run_once(now)
        now += 30
    succeeded = sum(
        1 for w in engine.workflows.values() if w.state.value == "succeeded"
    )
    print(
        format_table(
            ["metric", "value"],
            [
                ["workflows submitted", len(engine.workflows)],
                ["succeeded", succeeded],
                ["mitigation retries", runner.mitigations],
                ["incidents escalated", len(runner.incidents)],
                ["drain time (min)", now // 60],
            ],
            title="Diagnostics runner under an 8% stuck-workflow fault rate",
        )
    )


def monitoring_dashboard(traces) -> None:
    """The PowerBI substitute: per-hour KPI sparklines of one run."""
    from repro.report import render_dashboard
    from repro.types import SECONDS_PER_HOUR as HOUR

    settings = SimulationSettings(eval_start=31 * DAY, eval_end=32 * DAY)
    result = simulate_region(traces, "proactive", settings=settings)
    print()
    print(render_dashboard(result, traces, HOUR, "EU2 proactive, hourly"))


def main() -> None:
    traces = generate_region_traces(RegionPreset.EU2, n_databases=200, seed=9)
    frequency_sweep(traces)
    workflow_storm()
    monitoring_dashboard(traces)


if __name__ == "__main__":
    main()
