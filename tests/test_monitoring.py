"""Tests for the monitoring dashboard (``repro.report``) and the one
sparkline it renders with (``repro.observability.console``)."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.observability.console import sparkline
from repro.report import dashboard_series, render_dashboard
from repro.simulation import SimulationSettings, simulate_region
from repro.simulation.region import RegionSimulationResult
from repro.simulation.results import DatabaseOutcome
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR, ActivityTrace, Session
from repro.workload import RegionPreset, generate_region_traces

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR

#: The dashboard's label column is as wide as its longest label.
LABEL_WIDTH = len("proactive resumes")


def one_database(start, end, logins=(), **workflow_times):
    """A hand-made one-database run: its trace logs in at ``logins`` and
    its outcome holds ``<kind>=[times]`` workflow events."""
    trace = ActivityTrace("db", [Session(t, t + 1) for t in logins])
    outcome = DatabaseOutcome("db", start, end)
    for kind, times in workflow_times.items():
        getattr(outcome, f"{kind}_times").extend(times)
    settings = SimulationSettings(eval_start=start, eval_end=end)
    result = RegionSimulationResult("proactive", settings, DEFAULT_CONFIG, [outcome])
    return result, [trace]


def sparklines(text, n_buckets):
    """The sparkline cell and the summary of every metric row."""
    rows = text.splitlines()[1:]
    first = LABEL_WIDTH + 2
    return [
        (row[first:first + n_buckets], row[first + n_buckets:]) for row in rows
    ]


class TestRollup:
    def test_buckets_and_counts(self):
        result, traces = one_database(
            0, 200, logins=(10, 110), reactive_resume=[20]
        )
        series = dashboard_series(result, traces, 100)
        assert series["logins"] == [1, 1]
        assert series["reactive_resume"] == [1, 0]
        assert series["proactive_resume"] == [0, 0]

    def test_qos_per_bucket(self):
        # Bucket 0: four logins, one reactive (75 %); bucket 1 has no
        # logins and counts as fully served.
        result, traces = one_database(
            0, 200, logins=(0, 10, 20, 30), reactive_resume=[5]
        )
        text = render_dashboard(result, traces, 100, "t")
        qos_row = text.splitlines()[2]
        assert qos_row.lstrip().startswith("QoS %")
        assert qos_row.endswith("min   75.0")

    def test_invalid_args(self):
        result, traces = one_database(0, 200)
        with pytest.raises(ValueError):
            dashboard_series(result, traces, 0)

    def test_partial_last_bucket_is_counted(self):
        # 4-second buckets over a 10-second window: the third bucket
        # covers [8, 10) and still counts its events.
        result, traces = one_database(
            0, 10, logins=(1, 9), physical_pause=[2, 8, 9]
        )
        series = dashboard_series(result, traces, 4)
        assert series["logins"] == [1, 0, 1]
        assert series["physical_pause"] == [1, 0, 2]
        assert "3 buckets" in render_dashboard(result, traces, 4, "t")


class TestKpiReconciliation:
    """The per-bucket sums equal the run's KpiReport totals."""

    @pytest.fixture(
        scope="class",
        params=[(RegionPreset.EU1, 40, 3), (RegionPreset.EU2, 60, 5)],
        ids=["EU1", "EU2"],
    )
    def run(self, request):
        preset, n, seed = request.param
        traces = generate_region_traces(preset, n, span_days=32, seed=seed)
        settings = SimulationSettings(eval_start=30 * DAY, eval_end=31 * DAY)
        return simulate_region(traces, "proactive", settings=settings), traces

    @pytest.mark.parametrize("bucket_s", [HOUR, 7 * HOUR])
    def test_bucket_totals_match_kpi_report(self, run, bucket_s):
        result, traces = run
        kpis = result.kpis()
        totals = {
            kind: sum(counts)
            for kind, counts in dashboard_series(result, traces, bucket_s).items()
        }
        assert totals == {
            "logins": kpis.logins.total,
            "reactive_resume": kpis.workflows.reactive_resumes,
            "proactive_resume": kpis.workflows.proactive_resumes,
            "physical_pause": kpis.workflows.physical_pauses,
            "logical_pause": kpis.workflows.logical_pauses,
        }
        assert totals["logins"] > 0 and totals["physical_pause"] > 0

    def test_qos_matches_kpi_report(self, run):
        result, traces = run
        series = dashboard_series(result, traces, HOUR)
        logins = sum(series["logins"])
        reactive = sum(series["reactive_resume"])
        assert 100.0 * (logins - reactive) / logins == pytest.approx(
            result.kpis().qos_percent
        )


class TestSparkline:
    def test_shape(self):
        line = sparkline([1, 2, 3, 4])
        assert len(line) == 4
        assert line[-1] == "█"
        assert list(line) == sorted(line, key=" ▁▂▃▄▅▆▇█".index)

    def test_flat_series(self):
        assert sparkline([5, 5, 5]) == "███"

    def test_all_zero(self):
        assert sparkline([0, 0, 0]) == "   "

    def test_empty(self):
        assert sparkline([]) == ""

    def test_width_keeps_the_tail(self):
        values = list(range(40))
        assert sparkline(values) == sparkline(values[-32:])
        assert len(sparkline(values, 5)) == 5
        assert sparkline(values, 40)[-1] == "█"


class TestDashboard:
    def test_renders_all_metrics(self):
        result, traces = one_database(
            0, 200, logins=(10, 20, 110), reactive_resume=[15],
            proactive_resume=[105, 150],
        )
        text = render_dashboard(result, traces, 100, "EU1")
        assert text.splitlines()[0] == "EU1 — 2 buckets"
        for label in ("logins", "QoS %", "reactive resumes",
                      "proactive resumes", "physical pauses", "logical pauses"):
            assert label in text
        assert [summary for _, summary in sparklines(text, 2)] == [
            "  sum      3",
            "  min   50.0",
            "  sum      1",
            "  sum      2",
            "  sum      0",
            "  sum      0",
        ]

    def test_empty_dashboard(self):
        """A window without activity renders zero sums and full QoS."""
        result, traces = one_database(0, 3 * HOUR)
        text = render_dashboard(result, traces, HOUR, "quiet")
        cells = sparklines(text, 3)
        assert cells[0] == ("   ", "  sum      0")
        assert cells[1] == ("███", "  min  100.0")

    def test_three_day_window_keeps_every_bucket(self):
        traces = generate_region_traces(RegionPreset.EU1, 20, span_days=33, seed=2)
        settings = SimulationSettings(eval_start=30 * DAY, eval_end=33 * DAY)
        result = simulate_region(traces, "proactive", settings=settings)
        text = render_dashboard(result, traces, HOUR, "3 days")
        assert text.splitlines()[0] == "3 days — 72 buckets"
        cells = sparklines(text, 72)
        assert len(cells) == 6
        for line, summary in cells:
            assert len(line) == 72
            assert summary.startswith("  sum ") or summary.startswith("  min ")
        assert cells[0][1] == f"  sum {result.kpis().logins.total:6d}"
