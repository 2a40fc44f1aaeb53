"""Tests for the prediction-accuracy evaluation."""

import pytest

from repro.core.accuracy import AccuracyReport, evaluate_predictions
from repro.simulation import SimulationSettings, simulate_region
from repro.simulation.results import DatabaseOutcome
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR, ActivityTrace, Session

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR


def outcome_with_predictions(predictions):
    outcome = DatabaseOutcome("db", 0, 100 * DAY)
    for p in predictions:
        outcome.record_prediction(*p)
    return outcome


def daily_trace(days=31):
    return ActivityTrace(
        "db",
        [Session(d * DAY + 9 * HOUR, d * DAY + 17 * HOUR) for d in range(days)],
    )


class TestClassification:
    def test_hit(self):
        trace = daily_trace()
        outcome = outcome_with_predictions(
            [(5 * DAY + 18 * HOUR, 6 * DAY + 9 * HOUR, 6 * DAY + 9 * HOUR, 1.0)]
        )
        report = evaluate_predictions(outcome, trace, horizon_s=DAY)
        assert report.hits == 1 and report.total == 1
        assert report.lead_time_errors_s == [0]

    def test_miss_outside_tolerance(self):
        trace = daily_trace()
        # Predicted 05:00, actual login 09:00: 4h off, beyond 30min.
        outcome = outcome_with_predictions(
            [(5 * DAY + 18 * HOUR, 6 * DAY + 5 * HOUR, 6 * DAY + 5 * HOUR, 0.5)]
        )
        report = evaluate_predictions(outcome, trace, horizon_s=DAY)
        assert report.misses == 1
        assert report.lead_time_errors_s == [4 * HOUR]

    def test_false_alarm(self):
        trace = ActivityTrace("db", [Session(0, HOUR)])
        outcome = outcome_with_predictions(
            [(2 * HOUR, 5 * HOUR, 6 * HOUR, 0.3)]
        )
        report = evaluate_predictions(outcome, trace, horizon_s=DAY)
        assert report.false_alarms == 1

    def test_undetected(self):
        trace = daily_trace()
        outcome = outcome_with_predictions([(5 * DAY + 18 * HOUR, 0, 0, 0.0)])
        report = evaluate_predictions(outcome, trace, horizon_s=DAY)
        assert report.undetected == 1

    def test_true_quiet(self):
        trace = ActivityTrace("db", [Session(0, HOUR)])
        outcome = outcome_with_predictions([(2 * HOUR, 0, 0, 0.0)])
        report = evaluate_predictions(outcome, trace, horizon_s=DAY)
        assert report.true_quiet == 1

    def test_login_beyond_horizon_is_false_alarm(self):
        trace = ActivityTrace("db", [Session(0, HOUR), Session(5 * DAY, 5 * DAY + HOUR)])
        outcome = outcome_with_predictions([(2 * HOUR, 7 * HOUR, 8 * HOUR, 0.2)])
        report = evaluate_predictions(outcome, trace, horizon_s=DAY)
        assert report.false_alarms == 1


class TestReportMath:
    def test_precision_recall(self):
        report = AccuracyReport(hits=8, misses=1, false_alarms=1, undetected=1)
        assert report.precision == pytest.approx(0.8)
        assert report.recall == pytest.approx(0.8)

    def test_empty_report(self):
        report = AccuracyReport()
        assert report.precision == 0.0
        assert report.recall == 0.0
        with pytest.raises(ValueError):
            report.lead_time_percentile(50)

    def test_merge(self):
        a = AccuracyReport(hits=1, lead_time_errors_s=[10])
        a.merge(AccuracyReport(misses=2, lead_time_errors_s=[20]))
        assert a.hits == 1 and a.misses == 2
        assert a.lead_time_errors_s == [10, 20]


class TestEndToEnd:
    def test_daily_database_predicts_well(self):
        """Algorithm 4 on a clean daily pattern: perfect precision/recall,
        near-zero lead time -- the 'sufficient in practice' claim."""
        trace = daily_trace()
        settings = SimulationSettings(
            eval_start=28 * DAY,
            eval_end=30 * DAY,
            resume_latency_jitter_s=0,
            collect_predictions=True,
        )
        result = simulate_region([trace], "proactive", settings=settings)
        report = evaluate_predictions(result.outcomes[0], trace, horizon_s=DAY)
        assert report.hits >= 1
        assert report.misses == 0
        assert report.false_alarms == 0
        assert report.precision == 1.0
        assert max(abs(e) for e in report.lead_time_errors_s) <= 60

    def test_collection_off_by_default(self):
        trace = daily_trace()
        settings = SimulationSettings(eval_start=29 * DAY, eval_end=30 * DAY)
        result = simulate_region([trace], "proactive", settings=settings)
        assert all(not o.predictions for o in result.outcomes)

    def test_fleet_accuracy_on_region(self):
        from repro.workload import RegionPreset, generate_region_traces

        traces = generate_region_traces(RegionPreset.EU1, 80, span_days=32, seed=5)
        settings = SimulationSettings(
            eval_start=30 * DAY, eval_end=31 * DAY, collect_predictions=True
        )
        result = simulate_region(traces, "proactive", settings=settings)
        by_id = {t.database_id: t for t in traces}
        report = AccuracyReport()
        for outcome in result.outcomes:
            report.merge(
                evaluate_predictions(outcome, by_id[outcome.database_id], DAY)
            )
        assert report.total > 0
        # The mixture contains predictable and unpredictable databases:
        # both sides of the confusion matrix are populated.
        assert report.hits > 0
        assert report.true_quiet + report.false_alarms + report.undetected > 0
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
