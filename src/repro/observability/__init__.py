"""Live tracing, metrics, and profiling for the ProRP control plane.

Production serverless fleets are operated from live traces and metric
rollups, not from post-hoc replay of finished results.  This package
instruments the hot paths themselves:

* :mod:`repro.observability.tracer` -- nested spans with attributes; the
  trace context propagates from engine event dispatch down through policy
  decisions, predictor calls, the proactive resume scan, and SQL/B-tree
  operations (single-threaded stack discipline).
* :mod:`repro.observability.metrics` -- counters, gauges, and fixed-bucket
  histograms (prediction latency percentiles, events per sim-second,
  history rows scanned, resume-scan duration).
* :mod:`repro.observability.exporters` -- JSONL span log, Chrome
  ``chrome://tracing`` trace-event JSON, plain-text/JSON metrics snapshot.
* :mod:`repro.observability.runtime` -- the off-by-default process-global
  switch (``OBS``); disabled instrumentation costs one guard check.

See ``docs/observability.md`` for the span taxonomy and metric names.
"""

from repro.observability.console import render_top, sparkline
from repro.observability.exporters import (
    chrome_trace_events,
    write_chrome_trace,
    write_metrics_snapshot,
    write_spans_jsonl,
)
from repro.observability.metrics import (
    LATENCY_BUCKETS_MS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    metric_key,
)
from repro.observability.openmetrics import render_openmetrics, sanitize_name
from repro.observability.runtime import OBS, disable, enable, observed
from repro.observability.slo import (
    AlertEvent,
    AlertLedger,
    SloMonitor,
    SloSpec,
    serving_slos,
    simulation_slos,
)
from repro.observability.timeseries import (
    DEFAULT_WINDOW_CAPACITY,
    DEFAULT_WINDOW_S,
    CounterSeries,
    GaugeSeries,
    HistogramSeries,
)
from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
)

__all__ = [
    "OBS",
    "enable",
    "disable",
    "observed",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanRecord",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "metric_key",
    "exponential_buckets",
    "LATENCY_BUCKETS_MS",
    "SIZE_BUCKETS",
    "CounterSeries",
    "GaugeSeries",
    "HistogramSeries",
    "DEFAULT_WINDOW_S",
    "DEFAULT_WINDOW_CAPACITY",
    "SloSpec",
    "SloMonitor",
    "AlertEvent",
    "AlertLedger",
    "simulation_slos",
    "serving_slos",
    "render_openmetrics",
    "sanitize_name",
    "render_top",
    "sparkline",
    "write_spans_jsonl",
    "write_chrome_trace",
    "write_metrics_snapshot",
    "chrome_trace_events",
]
