"""Tests for the live tracing / metrics layer (repro.observability).

The contract under test: instrumentation is off by default and invisible
when off; enabled runs produce correctly nested spans and exact metric
percentiles; exports are valid Chrome trace-event / JSONL documents; and
per-worker registries merge deterministically across the multiprocess
sweep boundary.
"""

import json

import pytest

from repro.errors import ProRPError
from repro.observability import (
    NULL_TRACER,
    OBS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    disable,
    enable,
    exponential_buckets,
    observed,
    write_chrome_trace,
    write_metrics_snapshot,
    write_spans_jsonl,
)
from repro.parallel import MultiprocessExecutor
from repro.simulation import SimulationSettings, simulate_region
from repro.simulation.engine import EventQueue
from repro.types import SECONDS_PER_DAY
from repro.workload import RegionPreset, generate_region_traces

DAY = SECONDS_PER_DAY


@pytest.fixture(autouse=True)
def _observability_off():
    """Every test starts and ends with the process-wide default."""
    disable()
    yield
    disable()


# ----------------------------------------------------------------------
# The runtime switch
# ----------------------------------------------------------------------


class TestRuntime:
    def test_disabled_by_default(self):
        assert not OBS.enabled
        assert OBS.tracer is NULL_TRACER
        assert OBS.metrics is None

    def test_enable_disable_roundtrip(self):
        runtime = enable()
        assert OBS.enabled
        assert isinstance(runtime.tracer, Tracer)
        assert isinstance(runtime.metrics, MetricsRegistry)
        disable()
        assert not OBS.enabled
        assert OBS.tracer is NULL_TRACER

    def test_observed_restores_prior_state(self):
        with observed() as runtime:
            assert OBS.enabled
            inner = runtime.metrics
            with observed(tracer=NULL_TRACER):
                assert OBS.tracer is NULL_TRACER
                assert OBS.metrics is not inner
            assert OBS.metrics is inner
            assert isinstance(OBS.tracer, Tracer)
        assert not OBS.enabled

    def test_null_tracer_is_reentrant_noop(self):
        with NULL_TRACER.span("a") as a:
            with NULL_TRACER.span("b") as b:
                assert a is b
                a.set_attribute("ignored", 1)
        assert NULL_TRACER.spans == []


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_completion_order(self):
        tracer = Tracer()
        with tracer.span("outer", t=10):
            with tracer.span("inner.first"):
                pass
            with tracer.span("inner.second"):
                with tracer.span("leaf"):
                    pass
        # Children complete before parents.
        assert [s.name for s in tracer.spans] == [
            "inner.first", "leaf", "inner.second", "outer",
        ]
        outer = tracer.spans[-1]
        assert outer.parent_id is None
        assert outer.attributes == {"t": 10}
        children = [s for s in tracer.spans if s.parent_id == outer.span_id]
        assert [s.name for s in children] == ["inner.first", "inner.second"]
        assert tracer.roots() == [outer]
        assert all(
            s.start_ns >= outer.start_ns and s.end_ns <= outer.end_ns
            for s in children
        )

    def test_depth_and_current_span(self):
        tracer = Tracer()
        assert tracer.depth == 0 and tracer.current_span is None
        with tracer.span("a") as a:
            assert tracer.depth == 1 and tracer.current_span is a
            a.set_attribute("db", "db-1")
        assert tracer.depth == 0
        assert tracer.spans[0].attributes == {"db": "db-1"}

    def test_exception_records_error_attribute(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        assert tracer.spans[0].attributes["error"] == "ValueError"
        assert tracer.depth == 0

    def test_engine_dispatch_spans_nest_under_events(self):
        """Deterministic engine order -> deterministic span tree."""
        queue = EventQueue(start=0)
        with observed() as runtime:
            def nested(now):
                with OBS.tracer.span("work.step", t=now):
                    pass

            queue.schedule(5, nested)
            queue.schedule(7, nested)
            queue.run_all()
            spans = runtime.tracer.spans
            dispatched = runtime.metrics.counter("engine.events_dispatched").value
        assert [s.name for s in spans] == [
            "work.step", "engine.event", "work.step", "engine.event",
        ]
        assert [s.attributes["t"] for s in spans] == [5, 5, 7, 7]
        for child, parent in zip(spans[0::2], spans[1::2]):
            assert child.parent_id == parent.span_id
        assert dispatched == 2


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ProRPError):
            c.inc(-1)

    def test_gauge_merge_last_write_wins(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(1)
        b.set(2)
        a.merge(b)
        assert a.value == 2
        a.merge(Gauge("g"))  # unset gauge does not clobber
        assert a.value == 2

    def test_histogram_bucket_edges(self):
        h = Histogram("h", buckets=[1.0, 10.0, 100.0])
        for v in (0.5, 1.0, 1.5, 10.0, 99.9, 100.0, 1e6):
            h.observe(v)
        # bisect_left: a value equal to a bound lands in that bound's bucket.
        assert h.counts == [2, 2, 2, 1]
        assert h.count == 7
        assert h.min == 0.5 and h.max == 1e6

    def test_histogram_exact_percentiles(self):
        h = Histogram("h", buckets=exponential_buckets(1.0, 2.0, 12))
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50.0) == 50.0
        assert h.percentile(95.0) == 95.0
        assert h.percentile(99.0) == 99.0
        assert h.percentile(0.0) == 1.0
        assert h.percentile(100.0) == 100.0

    def test_histogram_interpolates_after_sample_overflow(self):
        h = Histogram("h", buckets=[10.0, 20.0, 40.0], sample_limit=8)
        for v in range(1, 33):  # 32 observations, buffer keeps 8
            h.observe(float(v))
        assert len(h.samples) == 8 and h.count == 32
        p50 = h.percentile(50.0)
        assert 10.0 <= p50 <= 20.0  # true median is 16.5
        assert h.percentile(100.0) == 32.0

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ProRPError):
            Histogram("h", buckets=[])
        with pytest.raises(ProRPError):
            Histogram("h", buckets=[1.0, 1.0, 2.0])
        with pytest.raises(ProRPError):
            Histogram("h", buckets=[2.0, 1.0])

    def test_registry_get_or_create_and_type_conflicts(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ProRPError):
            reg.gauge("x")
        assert "x" in reg and len(reg) == 1

    def test_registry_merge_preserves_order_and_sums(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("first").inc(1)
        a.histogram("lat", buckets=[1.0, 2.0]).observe(0.5)
        b.counter("first").inc(2)
        b.histogram("lat", buckets=[1.0, 2.0]).observe(1.5)
        b.counter("new").inc(7)
        a.merge(b)
        assert a.names() == ["first", "lat", "new"]
        assert a.counter("first").value == 3
        assert a.histogram("lat").count == 2
        assert a.counter("new").value == 7

    def test_merge_rejects_differing_bucket_layouts(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=[1.0, 2.0]).observe(1.0)
        b.histogram("h", buckets=[1.0, 3.0]).observe(1.0)
        with pytest.raises(ProRPError):
            a.merge(b)

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=[1.0, 2.0]).observe(0.5)
        snap = reg.snapshot()
        assert snap["c"] == {"kind": "counter", "value": 3}
        assert snap["g"] == {"kind": "gauge", "value": 1.5}
        assert snap["h"]["kind"] == "histogram"
        assert snap["h"]["count"] == 1
        text = reg.format_snapshot("test")
        assert text.startswith("# test: 3 metrics")
        assert "h histogram count=1" in text


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("engine.event", t=5):
        with tracer.span("predictor.fast"):
            pass
    return tracer


class TestExporters:
    def test_chrome_trace_shape(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "trace.json"
        n = write_chrome_trace(tracer.spans, path)
        assert n == 2
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == 2
        assert all(e["ph"] == "X" for e in events)
        # Sorted by start time: the parent (earlier ts) comes first.
        parent, child = events
        assert parent["name"] == "engine.event"
        assert parent["cat"] == "engine"
        assert parent["args"]["t"] == 5
        assert child["args"]["parent_id"] == parent["args"]["span_id"]
        assert child["ts"] >= parent["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-9

    def test_spans_jsonl_roundtrip(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "spans.jsonl"
        assert write_spans_jsonl(tracer.spans, path) == 2
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["predictor.fast", "engine.event"]
        assert records[0]["parent_id"] == records[1]["span_id"]

    def test_chrome_trace_events_of_nothing(self):
        assert chrome_trace_events([]) == []

    def test_metrics_snapshot_text_and_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        text_path = tmp_path / "metrics.txt"
        write_metrics_snapshot(reg, text_path, title="t")
        assert text_path.read_text().startswith("# t: 1 metrics")
        json_path = tmp_path / "metrics.json"
        write_metrics_snapshot(reg, json_path)
        assert json.loads(json_path.read_text())["c"]["value"] == 1


# ----------------------------------------------------------------------
# Instrumented simulation
# ----------------------------------------------------------------------


def _small_fleet(n=6, days=8, seed=3):
    traces = generate_region_traces(
        RegionPreset.EU1, n, span_days=days, seed=seed
    )
    span_end = max(t.span[1] for t in traces)
    settings = SimulationSettings(
        eval_start=span_end - 1 * DAY, eval_end=span_end
    )
    return traces, settings


class TestInstrumentedSimulation:
    def test_run_produces_spans_and_metrics(self):
        traces, settings = _small_fleet()
        with observed() as runtime:
            result = simulate_region(traces, "proactive", settings=settings)
            spans = runtime.tracer.spans
            registry = runtime.metrics
        assert result.kpis().n_databases == len(traces)
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["simulate.region"]
        assert roots[0].attributes["n_databases"] == len(traces)
        names = {s.name for s in spans}
        assert "engine.event" in names
        assert "resume.scan" in names
        dispatched = registry.counter("engine.events_dispatched").value
        assert dispatched > 0
        assert len([s for s in spans if s.name == "engine.event"]) == dispatched
        assert registry.counter("resume.scan.iterations").value > 0
        assert registry.histogram("history.tuples").count == len(traces)
        # Every engine.event nests (transitively) under the root span.
        assert all(s.parent_id is not None for s in spans if s is not roots[0])

    def test_disabled_run_keeps_results_identical(self):
        traces, settings = _small_fleet()
        plain = simulate_region(traces, "proactive", settings=settings)
        with observed():
            traced = simulate_region(traces, "proactive", settings=settings)
        assert plain.kpis() == traced.kpis()

    def test_fig10_engines_agree(self):
        """fig10's settings on both engines: the same per-database history
        footprints and predictor calls, and one latency sample per
        reference-predictor call on each.  ``run_fig10`` (the columnar
        engine) reads the same tuple counts."""
        from repro.experiments.common import BENCH_SCALE, region_fleet
        from repro.experiments.fig10 import _chatty_tail, run_fig10

        scale = BENCH_SCALE.smaller(n_databases=30, eval_days=1)
        traces = region_fleet(RegionPreset.EU1, scale) + _chatty_tail(scale)
        seen = {}
        for engine in ("columnar", "actor"):
            settings = scale.settings(use_fast_predictor=False, engine=engine)
            with observed(tracer=NULL_TRACER) as runtime:
                result = simulate_region(traces, "proactive", settings=settings)
                histogram = runtime.metrics.histogram(
                    "predictor.reference.latency_ms"
                )
                calls = runtime.metrics.counter("predictor.reference.calls").value
            assert histogram.count == len(histogram.samples) == calls > 0
            histories = result.histories.values()
            seen[engine] = (
                [h.tuple_count for h in histories],
                [h.size_bytes() / 1024.0 for h in histories],
                calls,
            )
        assert seen["columnar"] == seen["actor"]
        figure = run_fig10(scale)
        tuples, _, calls = seen["actor"]
        assert figure.tuple_counts.values == sorted(tuples)
        assert len(figure.prediction_latency_ms) == calls


# ----------------------------------------------------------------------
# Multiprocess registry merge
# ----------------------------------------------------------------------


def _metered_square(context, item):
    """Sweep worker that records into the ambient (per-chunk) registry."""
    if OBS.enabled:
        OBS.metrics.counter("worker.tasks").inc()
        OBS.metrics.histogram(
            "worker.item", buckets=[2.0, 4.0, 8.0]
        ).observe(item)
    return item * item


class TestWorkerRegistryMerge:
    def test_merge_across_two_workers(self):
        items = list(range(8))
        with observed(tracer=NULL_TRACER) as runtime:
            executor = MultiprocessExecutor(workers=2, chunk_size=2)
            out = executor.run(_metered_square, None, items)
            assert out == [i * i for i in items]
            if executor.last_stats.fallback_reason is not None:
                pytest.skip("pool unavailable on this platform")
            assert runtime.metrics.counter("worker.tasks").value == len(items)
            histogram = runtime.metrics.histogram("worker.item")
            assert histogram.count == len(items)
            # Ordered merge: sample order follows chunk submission order.
            assert histogram.samples == [float(i) for i in items]

    def test_disabled_parent_ships_no_registries(self):
        executor = MultiprocessExecutor(workers=2, chunk_size=2)
        out = executor.run(_metered_square, None, [1, 2, 3, 4])
        assert out == [1, 4, 9, 16]
        assert OBS.metrics is None
