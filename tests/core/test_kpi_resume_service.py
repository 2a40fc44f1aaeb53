"""Tests for KPI accounting (Section 8) and the proactive resume operation
(Algorithm 5)."""

import pytest

from repro.core.kpi import IdleBreakdown, KpiReport, LoginStats, WorkflowCounts
from repro.core.resume_service import ProactiveResumeOperation
from repro.storage.metadata import MetadataStore
from repro.types import SECONDS_PER_MINUTE

MIN = SECONDS_PER_MINUTE


def make_report(**overrides):
    defaults = dict(
        policy="proactive",
        n_databases=10,
        eval_start=0,
        eval_end=1000,
        logins=LoginStats(with_resources=80, reactive=20),
        idle=IdleBreakdown(
            logical_pause_s=300, correct_proactive_s=100, wrong_proactive_s=50
        ),
        workflows=WorkflowCounts(proactive_resumes=5, physical_pauses=7),
        unavailable_s=40,
        used_s=5000,
        saved_s=4510,
    )
    defaults.update(overrides)
    return KpiReport(**defaults)


class TestLoginStats:
    def test_percentages(self):
        stats = LoginStats(with_resources=80, reactive=20)
        assert stats.total == 100
        assert stats.qos_percent == 80.0

    def test_no_logins_yields_zero(self):
        assert LoginStats().qos_percent == 0.0


class TestKpiReport:
    def test_fleet_seconds(self):
        assert make_report().fleet_seconds == 10_000

    def test_idle_breakdown_percentages(self):
        report = make_report()
        assert report.idle_percent == pytest.approx(4.5)
        assert report.idle_logical_pause_percent == pytest.approx(3.0)
        assert report.idle_correct_proactive_percent == pytest.approx(1.0)
        assert report.idle_wrong_proactive_percent == pytest.approx(0.5)

    def test_accounting_identity(self):
        """used + saved + idle + unavailable partitions fleet time
        (the four quadrants of Definition 2.2)."""
        report = make_report()
        assert report.accounted_seconds() == report.fleet_seconds

    def test_to_dict_round_numbers(self):
        data = make_report().to_dict()
        assert data["qos_percent"] == 80.0
        assert data["policy"] == "proactive"
        assert data["physical_pauses"] == 7


class TestProactiveResumeOperation:
    def _setup(self, period_s=MIN, prewarm_s=5 * MIN):
        metadata = MetadataStore()
        prewarmed = []
        operation = ProactiveResumeOperation(
            metadata,
            prewarm_s=prewarm_s,
            period_s=period_s,
            on_prewarm=lambda db, now: prewarmed.append((db, now)),
        )
        return metadata, operation, prewarmed

    def test_run_once_prewarns_matching_databases(self):
        metadata, operation, prewarmed = self._setup()
        now = 100 * MIN
        metadata.register("hit")
        metadata.record_physical_pause("hit", now + 5 * MIN + 30)
        metadata.register("miss")
        metadata.record_physical_pause("miss", now + 30 * MIN)
        record = operation.run_once(now)
        assert record.database_ids == ["hit"]
        assert prewarmed == [("hit", now)]

    def test_iterations_accumulate_batch_sizes(self):
        metadata, operation, _ = self._setup()
        for i in range(6):
            metadata.register(f"db-{i}")
            metadata.record_physical_pause(f"db-{i}", 100 * MIN + 5 * MIN + 10 + i)
        operation.run_once(100 * MIN)
        operation.run_once(101 * MIN)
        assert [r.batch_size for r in operation.iterations] == [6, 0]

    def test_batch_sizes_window_filter(self):
        metadata, operation, _ = self._setup()
        operation.run_once(10)
        operation.run_once(20)
        operation.run_once(30)
        assert [
            r.batch_size for r in operation.iterations if 15 <= r.time < 30
        ] == [0]

    def test_invalid_period_rejected(self):
        metadata = MetadataStore()
        with pytest.raises(ValueError):
            ProactiveResumeOperation(metadata, 300, 0, lambda d, n: None)

    def test_longer_period_larger_batches(self):
        """Figure 11's driver: batch size grows with the operation period."""
        now = 1000 * MIN
        batches = {}
        for period in (MIN, 15 * MIN):
            metadata = MetadataStore()
            operation = ProactiveResumeOperation(
                metadata, 5 * MIN, period, lambda d, n: None
            )
            for i in range(100):
                db = f"db-{i}"
                metadata.register(db)
                # Predicted starts spread uniformly over the next 20 minutes.
                metadata.record_physical_pause(db, now + 5 * MIN + i * 12)
            batches[period] = operation.run_once(now).batch_size
        assert batches[15 * MIN] > batches[MIN]
