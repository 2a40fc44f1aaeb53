"""Metric and workload names: the one list ``BENCHMARK.json``, the
workloads and the smoke test agree on."""

from __future__ import annotations

from typing import Dict, List, Tuple

#: name -> one-line reason (mirrored in BENCHMARK.json and the README).
WORKLOADS: Dict[str, str] = {
    "fleet_day": (
        "lean columnar simulate_fleet over a 10k-DB fleet-day: scalar heap "
        "loop + FSM + short-history predict dominate, storage is arrays"
    ),
    "region_month": (
        "simulate_region (full stores, 28-day history) reactive then "
        "proactive: B-tree storage and long-history predict dominate"
    ),
    "serve_burst": (
        "in-process submit, 64 closed-loop clients sharing now per round: "
        "admission, micro-batcher and predict_fleet do all the work"
    ),
    "serve_tcp_pair": (
        "serve_tcp front end, 2 closed-loop connections, distinct now per "
        "request: codec, socket and batcher linger are the whole cost"
    ),
    "serve_sharded_mixed": (
        "2-worker ShardRouter, by-id reads beside appends and resume scans: "
        "open-loop steady phase then closed-loop capacity phase"
    ),
}

#: (name, unit, better, bound) -- every workload reports every one.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("qos_percent", "%", "higher", 0.10),
    ("peak_rss_mib", "MiB", "lower", 0.10),
]

#: (name, unit, better) -- every workload reports every one with
#: ``--trace 1``; a layer the workload does not exercise reads 0.
PER_LAYER: List[Tuple[str, str, str]] = [
    # workload
    ("workload.generate_s", "s", "lower"),
    ("workload.sessions", "count", "higher"),
    # simulation
    ("simulation.events", "count", "lower"),
    ("simulation.host_us_per_event", "us/event", "lower"),
    ("simulation.settle.busy_share", "share", "lower"),
    ("simulation.run_until.self_share", "share", "lower"),
    ("simulation.accounting.calls", "count", "lower"),
    ("simulation.accounting.busy_share", "share", "lower"),
    ("simulation.state_mib", "MiB", "lower"),
    ("simulation.idle_percent", "%", "lower"),
    # core
    ("core.predict.calls", "count", "lower"),
    ("core.predict.busy_share", "share", "lower"),
    ("core.predict.us_per_call", "us/call", "lower"),
    ("core.predict_fleet.calls", "count", "lower"),
    ("core.predict_fleet.databases", "count", "higher"),
    ("core.predict_fleet.busy_share", "share", "lower"),
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("core.resume_scan.calls", "count", "lower"),
    ("core.resume_scan.prewarms", "count", "higher"),
    ("core.resume_scan.busy_share", "share", "lower"),
    # storage
    ("storage.history.insert.calls", "count", "lower"),
    ("storage.history.insert.busy_share", "share", "lower"),
    ("storage.history.trim.calls", "count", "lower"),
    ("storage.history.trim.busy_share", "share", "lower"),
    ("storage.metadata.scan.calls", "count", "lower"),
    ("storage.metadata.scan.busy_share", "share", "lower"),
    ("storage.warm_load.busy_share", "share", "lower"),
    # cluster
    ("cluster.allocate.calls", "count", "lower"),
    ("cluster.allocate.busy_share", "share", "lower"),
    # parallel
    ("parallel.pooled_over_serial", "ratio", "lower"),
    # serving.requests
    ("serving.codec.calls", "count", "lower"),
    ("serving.codec.encode_us", "us/call", "lower"),
    ("serving.codec.decode_us", "us/call", "lower"),
    ("serving.codec.bytes_per_request", "B/req", "lower"),
    # serving.admission
    ("serving.admission.admitted", "count", "higher"),
    ("serving.admission.shed", "count", "lower"),
    ("serving.admission.queue_wait_ms_p50", "ms/req", "lower"),
    ("serving.admission.max_depth", "count", "lower"),
    # serving.batcher
    ("serving.batcher.batches", "count", "lower"),
    ("serving.batcher.mean_batch_size", "req/batch", "higher"),
    ("serving.batcher.wait_ms_p50", "ms/req", "lower"),
    # serving.server
    ("serving.server.cache_hit_ratio", "ratio", "higher"),
    ("serving.server.loop_cpu_share", "share", "lower"),
    ("serving.latency_p99_ms", "ms/req", "lower"),
    # serving.sharded
    ("sharded.hashring.lookup_us", "us/call", "lower"),
    ("sharded.arena.build_ms", "ms/build", "lower"),
    ("sharded.arena.nbytes", "B", "lower"),
    ("sharded.arena.append.calls", "count", "higher"),
    ("sharded.arena.append.us_per_call", "us/call", "lower"),
    ("sharded.router.routed", "count", "higher"),
    ("sharded.router.shed_overloaded", "count", "lower"),
    ("sharded.router.retries", "count", "lower"),
    ("sharded.router.max_outstanding", "count", "lower"),
    ("sharded.router.worker_skew", "ratio", "lower"),
    ("sharded.router.cpu_share", "share", "lower"),
    ("sharded.worker.cpu_share", "share", "lower"),
    ("sharded.worker.served", "count", "higher"),
    ("sharded.worker.spawn_ms", "ms/spawn", "lower"),
    ("sharded.wire_ms_p50", "ms/req", "lower"),
    # harness
    ("loadgen.late_ms_p99", "ms/req", "lower"),
    ("tracing.overhead_share", "share", "lower"),
    ("tracing.unattributed_share", "share", "lower"),
    ("harness.units", "count", "higher"),
    ("harness.latency_samples", "count", "higher"),
    ("harness.verify_ms", "ms/run", "lower"),
]

END_TO_END_NAMES = [name for name, *_ in END_TO_END]
PER_LAYER_NAMES = [name for name, *_ in PER_LAYER]
UNITS: Dict[str, str] = {
    **{name: unit for name, unit, *_ in END_TO_END},
    **{name: unit for name, unit, _ in PER_LAYER},
}
