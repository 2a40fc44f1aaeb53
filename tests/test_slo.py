"""SLO monitoring: burn-rate alerting, the replay of a finished run, the
OpenMetrics exposition, and the chaos-scenario acceptance round trip."""

import asyncio
import dataclasses

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.policy import PolicyKind
from repro.errors import ProRPError, SimulationError
from repro.experiments.chaos import run_slo_chaos
from repro.experiments.common import ExperimentScale, region_fleet
from repro.observability import (
    NULL_TRACER,
    AlertEvent,
    AlertLedger,
    CounterSeries,
    MetricsRegistry,
    SloMonitor,
    SloSpec,
    observed,
    render_openmetrics,
    serving_slos,
    simulation_slos,
)
from repro.report import replay_slos
from repro.serving import HealthRequest, MetricsRequest, PredictionServer
from repro.simulation.region import simulate_region
from repro.types import ActivityTrace, AllocationState, Session
from repro.workload.regions import RegionPreset

W = 900


def _burn_spec(**overrides):
    fields = dict(
        name="qos",
        kind="burn_rate",
        bad_series="slo.qos.reactive",
        total_series="slo.qos.logins",
        objective=0.10,
        fast_window_s=W,
        slow_window_s=4 * W,
    )
    fields.update(overrides)
    return SloSpec(**fields)


# ----------------------------------------------------------------------
# Spec validation and schema
# ----------------------------------------------------------------------


class TestSloSpec:
    def test_rejects_malformed_rules(self):
        with pytest.raises(ProRPError):
            SloSpec(name="x", kind="sparkline")
        with pytest.raises(ProRPError):
            _burn_spec(severity="whisper")
        with pytest.raises(ProRPError):
            _burn_spec(objective=0.0)
        with pytest.raises(ProRPError):
            _burn_spec(bad_series="")
        with pytest.raises(ProRPError):
            _burn_spec(fast_window_s=2 * W, slow_window_s=W)
        with pytest.raises(ProRPError):
            _burn_spec(clear_after=0)
        with pytest.raises(ProRPError):
            SloSpec(name="x", kind="threshold", series="s", stat="mode")
        with pytest.raises(ProRPError):
            SloSpec(name="x", kind="threshold", series="")

    def test_to_dict_is_the_documented_rule_schema(self):
        doc = _burn_spec(labels={"region": "eu"}).to_dict()
        assert doc["kind"] == "burn_rate"
        assert doc["bad_series"] == "slo.qos.reactive"
        assert doc["objective"] == 0.10
        assert doc["labels"] == {"region": "eu"}
        doc = SloSpec(
            name="p99", kind="threshold", series="s", stat="p99", limit=50.0
        ).to_dict()
        assert doc["series"] == "s"
        assert doc["stat"] == "p99"
        assert doc["limit"] == 50.0

    def test_stock_rule_sets_validate(self):
        names = {spec.name for spec in simulation_slos()}
        assert names == {
            "qos_violation",
            "predictor_unavailable",
            "predictor_latency_p99",
            "cogs_idle",
        }
        assert {spec.name for spec in serving_slos()} == {
            "shed_rate",
            "serving_latency_p99",
        }


# ----------------------------------------------------------------------
# Burn-rate firing and hysteresis
# ----------------------------------------------------------------------


class TestBurnRateAlerting:
    def _registry_with_windows(self, reactive_per_window):
        registry = MetricsRegistry()
        logins = registry.counter_series("slo.qos.logins", window_s=W)
        reactive = registry.counter_series("slo.qos.reactive", window_s=W)
        for i, bad in enumerate(reactive_per_window):
            logins.inc(i * W, 10)
            reactive.inc(i * W, bad)
        return registry

    def test_fires_then_clears_with_hysteresis(self):
        registry = self._registry_with_windows([10, 10, 10, 10, 0, 0, 0])
        monitor = SloMonitor(registry, (_burn_spec(),))
        # Four saturated windows: fast and slow burn both 10x budget.
        events = monitor.evaluate(4 * W)
        assert [e.state for e in events] == ["firing"]
        assert monitor.ledger.is_firing("qos")
        assert registry.gauge("slo.qos.firing").value == 1
        # One clean window is not enough (clear_after=2)...
        assert monitor.evaluate(5 * W) == []
        assert monitor.ledger.is_firing("qos")
        # ...the second consecutive clean evaluation clears it.
        events = monitor.evaluate(6 * W)
        assert [e.state for e in events] == ["cleared"]
        assert not monitor.ledger.is_firing("qos")
        assert registry.gauge("slo.qos.firing").value == 0
        assert registry.counter("slo.alerts.fired").value == 1
        assert registry.counter("slo.alerts.cleared").value == 1
        assert registry.gauge("slo.alerts.active").value == 0

    def test_single_bad_window_in_clean_slow_window_does_not_fire(self):
        # One saturated fast window, three clean ones: fast burn 10x but
        # slow burn (10/40)/0.1 = 2.5x < 3x -- the multi-window guard.
        registry = self._registry_with_windows([0, 0, 0, 10])
        monitor = SloMonitor(registry, (_burn_spec(),))
        assert monitor.evaluate(4 * W) == []
        assert not monitor.ledger.is_firing("qos")

    def test_zero_traffic_burns_nothing(self):
        registry = MetricsRegistry()
        registry.counter_series("slo.qos.logins", window_s=W)
        registry.counter_series("slo.qos.reactive", window_s=W)
        monitor = SloMonitor(registry, (_burn_spec(),))
        assert monitor.evaluate(4 * W) == []

    def test_labelled_rule_falls_back_to_unlabelled_series(self):
        registry = self._registry_with_windows([10, 10, 10, 10])
        monitor = SloMonitor(
            registry, (_burn_spec(labels={"region": "eu"}),)
        )
        events = monitor.evaluate(4 * W)
        assert [e.state for e in events] == ["firing"]


class TestThresholdAlerting:
    def test_gauge_last_threshold(self):
        registry = MetricsRegistry()
        spec = SloSpec(
            name="breaker_open",
            kind="threshold",
            series="breaker.predictor.state.window",
            stat="last",
            limit=1.0,
            fast_window_s=W,
            slow_window_s=W,
        )
        monitor = SloMonitor(registry, (spec,))
        gauge = registry.gauge_series(
            "breaker.predictor.state.window", window_s=W
        )
        gauge.set(100, 0)
        assert monitor.evaluate(W) == []
        gauge.set(W + 100, 1)  # breaker opens
        events = monitor.evaluate(2 * W)
        assert [e.state for e in events] == ["firing"]
        assert events[0].value == 1.0
        gauge.set(2 * W + 100, 0)  # breaker re-closes
        monitor.evaluate(3 * W)
        events = monitor.evaluate(4 * W)
        assert [e.state for e in events] == ["cleared"]

    def test_gauge_last_ignores_writes_at_or_after_now(self):
        # A finished run's gauge holds writes past every boundary; the
        # stat reads the newest complete window before ``now``, as a
        # live evaluation at ``now`` did.
        registry = MetricsRegistry()
        spec = SloSpec(
            name="breaker_open",
            kind="threshold",
            series="breaker.predictor.state.window",
            stat="last",
            limit=1.0,
            fast_window_s=W,
            slow_window_s=W,
        )
        monitor = SloMonitor(registry, (spec,))
        gauge = registry.gauge_series(
            "breaker.predictor.state.window", window_s=W
        )
        gauge.set(100, 0)
        gauge.set(2 * W, 1)  # breaker opens at the first boundary below
        gauge.set(3 * W + 5, 0)  # re-closes after the second
        assert gauge.last == 0
        assert monitor.evaluate(2 * W) == []
        assert registry.gauge("slo.breaker_open.value").value == 0
        events = monitor.evaluate(3 * W)
        assert [e.state for e in events] == ["firing"]
        assert events[0].value == 1.0

    def test_histogram_percentile_threshold(self):
        registry = MetricsRegistry()
        spec = SloSpec(
            name="latency",
            kind="threshold",
            series="lat",
            stat="p99",
            limit=50.0,
            fast_window_s=W,
            slow_window_s=W,
        )
        monitor = SloMonitor(registry, (spec,))
        hist = registry.histogram_series(
            "lat", window_s=W, buckets=[1.0, 10.0, 100.0]
        )
        for _ in range(20):
            hist.observe(100, 2.0)
        assert monitor.evaluate(W) == []
        for _ in range(20):
            hist.observe(W + 100, 90.0)
        events = monitor.evaluate(2 * W)
        assert [e.state for e in events] == ["firing"]
        assert events[0].value >= 50.0


# ----------------------------------------------------------------------
# Evaluation clock
# ----------------------------------------------------------------------


class TestEvaluationClock:
    def _monitor(self):
        registry = MetricsRegistry()
        return registry, SloMonitor(
            registry, (_burn_spec(),), eval_period_s=W
        )

    def test_aligns_then_evaluates_crossed_boundaries(self):
        registry, monitor = self._monitor()
        monitor.maybe_evaluate(100)  # aligns; never evaluates the
        monitor.maybe_evaluate(850)  # partial birth window
        assert registry.counter("slo.evaluations").value == 0
        monitor.maybe_evaluate(2000)  # crosses 900 and 1800
        assert registry.counter("slo.evaluations").value == 2
        monitor.maybe_evaluate(2699)
        assert registry.counter("slo.evaluations").value == 2
        monitor.maybe_evaluate(2700)
        assert registry.counter("slo.evaluations").value == 3

    def test_drain_flushes_the_partial_window(self):
        registry, monitor = self._monitor()
        monitor.maybe_evaluate(100)
        monitor.drain(2400)
        # Boundaries 900 and 1800, plus the final partial at 2400.
        assert registry.counter("slo.evaluations").value == 3

    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ProRPError):
            SloMonitor(registry, (_burn_spec(), _burn_spec()))
        with pytest.raises(ProRPError):
            SloMonitor(registry, ())


# ----------------------------------------------------------------------
# Alert ledger
# ----------------------------------------------------------------------


class TestAlertLedger:
    def test_queries(self):
        ledger = AlertLedger()
        ledger.append(AlertEvent(100, "a", "firing", "page", 6.0))
        ledger.append(AlertEvent(200, "b", "firing", "ticket", 2.0))
        ledger.append(AlertEvent(300, "a", "cleared", "page", 0.0))
        assert [e.name for e in ledger.active()] == ["b"]
        assert ledger.is_firing("b") and not ledger.is_firing("a")
        assert ledger.first_time("a", "firing") == 100
        assert ledger.first_time("a", "cleared") == 300
        assert ledger.first_time("b", "cleared") is None
        assert ledger.fired_count() == 2
        assert ledger.cleared_count() == 1


# ----------------------------------------------------------------------
# Replay of a finished run
# ----------------------------------------------------------------------

SMALL = ExperimentScale(n_databases=30, eval_days=1)


def _run(traces, **settings):
    return simulate_region(
        traces,
        PolicyKind.PROACTIVE,
        DEFAULT_CONFIG,
        SMALL.settings(collect_timelines=True, **settings),
    )


def _ledger(monitor):
    return [(e.time, e.name, e.state) for e in monitor.ledger.events]


class TestReplaySlos:
    @pytest.fixture(scope="class")
    def fleet(self):
        traces = region_fleet(RegionPreset.EU1, SMALL)
        return traces, _run(traces)

    def test_filters_and_clips_to_the_evaluation_window(self, fleet):
        # The vectorised window sums equal the per-interval reference on
        # windows that straddle both ends of [eval_start, eval_end): logins
        # outside it are dropped, intervals clipped, the last partial
        # window evaluated.
        traces, result = fleet
        settings = result.settings
        lo, hi, width = settings.eval_start, settings.eval_end, 1000
        assert lo % width and hi % width
        outside = ActivityTrace(
            "outside", [Session(lo - 10, lo - 5), Session(hi, hi + 5)]
        )
        monitor = SloMonitor(
            MetricsRegistry(), simulation_slos(), eval_period_s=width
        )
        totals = replay_slos(result, traces + [outside], monitor)
        reference = {
            name: CounterSeries(name, window_s=width)
            for name in ("logins", "reactive", "used_s", "idle_s",
                         "unavailable_s", "allocated_s")
        }
        for trace in traces:
            for session in trace.sessions:
                if lo <= session.start < hi:
                    reference["logins"].inc(session.start)
        ledger = {
            AllocationState.ACTIVE: "used_s",
            AllocationState.IDLE_ALLOCATED: "idle_s",
            AllocationState.RESUMING: "unavailable_s",
        }
        clipped = 0
        for outcome in result.outcomes:
            for interval in outcome.timeline:
                start, end = max(interval.start, lo), min(interval.end, hi)
                clipped += (start, end) != (interval.start, interval.end)
                if interval.state is AllocationState.RESUMING and lo <= interval.start < hi:
                    reference["reactive"].inc(interval.start)
                for name in (ledger[interval.state], "allocated_s"):
                    reference[name].add_interval(start, end)
        assert clipped > 0  # the warm-up lead reaches into the window
        for name, series in reference.items():
            group = "qos" if name in ("logins", "reactive") else "cogs"
            replayed = monitor.registry.get(f"slo.{group}.{name}")
            assert replayed.windows == series.windows, name
            assert totals[name] == series.total()
        assert totals["logins"] == result.kpis().logins.total > 0
        assert totals["reactive"] > 0
        first = (settings.sim_start // width + 1) * width
        boundaries = len(range(first, hi + 1, width)) + 1  # + partial at hi
        assert monitor.registry.counter("slo.evaluations").value == boundaries

    def test_refuses_a_result_without_timelines(self, fleet):
        traces, result = fleet
        bare = dataclasses.replace(
            result,
            settings=dataclasses.replace(result.settings, collect_timelines=False),
        )
        monitor = SloMonitor(MetricsRegistry(), simulation_slos())
        with pytest.raises(SimulationError, match="collect_timelines"):
            replay_slos(bare, traces, monitor)

    def test_refuses_totals_that_disagree_with_the_kpis(self, fleet):
        traces, result = fleet
        lo, hi = result.settings.eval_start, result.settings.eval_end
        busy = next(
            i for i, trace in enumerate(traces)
            if any(lo <= session.start < hi for session in trace.sessions)
        )
        monitor = SloMonitor(MetricsRegistry(), simulation_slos())
        with pytest.raises(SimulationError, match="disagree"):
            replay_slos(result, traces[:busy] + traces[busy + 1:], monitor)
        assert len(monitor.registry) == 0  # refused before writing

    def test_columnar_and_actor_results_replay_to_one_ledger(self, fleet):
        traces, columnar = fleet
        actor = _run(traces, engine="actor")
        ledgers, totals = [], []
        for result in (columnar, actor):
            monitor = SloMonitor(MetricsRegistry(), simulation_slos())
            totals.append(replay_slos(result, traces, monitor))
            ledgers.append(_ledger(monitor))
        assert ledgers[0] == ledgers[1]
        assert totals[0] == totals[1]
        assert any(name == "qos_violation" for _, name, _ in ledgers[0])


# ----------------------------------------------------------------------
# OpenMetrics exposition (golden document)
# ----------------------------------------------------------------------


GOLDEN = """\
# TYPE serving_served counter
serving_served_total 3
# TYPE slo_qos_logins counter
slo_qos_logins_total{region="eu-west-1"} 4
slo_qos_logins_total{region="us-east-2"} 2
# TYPE slo_alerts_active gauge
slo_alerts_active 1
# TYPE breaker_predictor_state_window gauge
breaker_predictor_state_window 1
# TYPE predictor_latency_ms_window histogram
predictor_latency_ms_window_bucket{le="1"} 1
predictor_latency_ms_window_bucket{le="10"} 1
predictor_latency_ms_window_bucket{le="+Inf"} 2 # {trace_id="span:42"} 25
predictor_latency_ms_window_sum 25.5
predictor_latency_ms_window_count 2
# EOF
"""


class TestOpenMetrics:
    def test_golden_document(self):
        registry = MetricsRegistry()
        registry.counter("serving.served").inc(3)
        registry.counter_series(
            "slo.qos.logins", window_s=W, labels={"region": "eu-west-1"}
        ).inc(0, 4)
        registry.counter_series(
            "slo.qos.logins", window_s=W, labels={"region": "us-east-2"}
        ).inc(W, 2)
        registry.gauge("slo.alerts.active").set(1)
        gauge = registry.gauge_series(
            "breaker.predictor.state.window", window_s=W
        )
        gauge.set(0, 0)
        gauge.set(950, 1)
        hist = registry.histogram_series(
            "predictor.latency_ms.window", window_s=W, buckets=[1.0, 10.0]
        )
        hist.observe(0, 0.5, exemplar="span:17")
        hist.observe(0, 25.0, exemplar="span:42")
        assert render_openmetrics(registry) == GOLDEN

    def test_empty_registry_renders_bare_eof(self):
        assert render_openmetrics(None) == "# EOF\n"
        assert render_openmetrics(MetricsRegistry()) == "# EOF\n"


# ----------------------------------------------------------------------
# Serving gateway: metrics request and degraded health
# ----------------------------------------------------------------------


class TestServingHealth:
    def test_metrics_request_serves_the_exposition(self):
        async def run():
            server = PredictionServer()
            return await server.submit(MetricsRequest("m1"))

        with observed(tracer=NULL_TRACER):
            response = asyncio.run(run())
        assert response.kind == "metrics"
        assert response.body.endswith("# EOF\n")
        assert "serving_requests_metrics_total 1" in response.body
        assert response.metric_count > 0

    def test_health_degrades_while_an_alert_fires(self):
        async def run():
            registry = MetricsRegistry()
            monitor = SloMonitor(registry, serving_slos())
            server = PredictionServer(slo_monitor=monitor)
            server._started = True  # as after the first served request
            before = await server.submit(HealthRequest("h1"))
            monitor.ledger.append(
                AlertEvent(1.0, "shed_rate", "firing", "page", 9.0)
            )
            during = await server.submit(HealthRequest("h2"))
            monitor.ledger.append(
                AlertEvent(2.0, "shed_rate", "cleared", "page", 0.0)
            )
            after = await server.submit(HealthRequest("h3"))
            return before, during, after

        before, during, after = asyncio.run(run())
        assert before.status == "ok"
        assert during.status == "degraded"
        assert during.stats["slo_alerts_active"] == 1
        assert after.status == "ok"
        assert after.stats["slo_alerts_fired"] == 1
        assert after.stats["slo_alerts_cleared"] == 1


# ----------------------------------------------------------------------
# Acceptance: the chaos scenario's alerting round trip
# ----------------------------------------------------------------------


class TestSloChaosScenario:
    def test_outage_fires_then_clears_and_streaming_matches_batch(self):
        result = run_slo_chaos(
            scale=ExperimentScale(n_databases=30, eval_days=1),
            preset=RegionPreset.EU1,
        )
        # The breaker alert fired inside (or within one window of) the
        # scheduled fault window, and cleared after recovery.
        fault_start, fault_end = result.fault_window
        assert result.unavailable_fired_at is not None
        assert (
            fault_start
            <= result.unavailable_fired_at
            <= fault_end + result.fast_window_s
        )
        assert result.unavailable_cleared_at > result.unavailable_fired_at
        # Same round trip for the latency-spike alert.
        assert result.latency_fired_at is not None
        assert result.latency_cleared_at > result.latency_fired_at
        assert result.alert_roundtrip_ok
        # Streaming windowed sums == simulator KPI report == the traces'
        # own login count (exact, not approximate).
        assert result.equivalence_ok
        assert result.replayed["logins"] == result.report["logins"]
        assert result.trace_logins == result.report["logins"] > 0
        assert result.replayed["used_s"] == result.report["used_s"]
        assert result.ok
        states = [
            (e["name"], e["state"])
            for e in result.alert_events
            if e["name"] == "predictor_unavailable"
        ]
        assert states[0] == ("predictor_unavailable", "firing")
        assert states[-1] == ("predictor_unavailable", "cleared")

    def test_deterministic_transitions_match_the_live_monitor(self):
        # The ledger the engine-ticked live monitor wrote on this fleet,
        # before the replay replaced it.  predictor_latency_p99 reads
        # wall-clock latencies, so only the other rules are pinned.
        live = [
            (2768400, "qos_violation", "firing"),
            (2770200, "qos_violation", "cleared"),
            (2786400, "qos_violation", "firing"),
            (2788200, "qos_violation", "cleared"),
            (2800800, "predictor_unavailable", "firing"),
            (2801700, "qos_violation", "firing"),
            (2804400, "qos_violation", "cleared"),
            (2804400, "predictor_unavailable", "cleared"),
            (2808000, "qos_violation", "firing"),
            (2809800, "qos_violation", "cleared"),
        ]
        result = run_slo_chaos(scale=SMALL, preset=RegionPreset.EU1)
        replayed = [
            (e["time"], e["name"], e["state"])
            for e in result.alert_events
            if e["name"] != "predictor_latency_p99"
        ]
        assert replayed == live
