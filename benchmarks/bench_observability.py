"""Observability benchmark: what watching the system costs.

Three sections, all written to ``BENCH_observability.json`` (full) or
``BENCH_observability_quick.json`` (``--quick``, the CI baseline):

* **noop**: disabled instrumentation must stay under 2% of a reference
  prediction.  The guard sites on the hot path are counted by running one
  prediction with metrics enabled (every counter on the path increments
  once per guard evaluation), the per-guard cost is measured with a tight
  loop, and the product is compared against the measured prediction time.
* **slo**: evaluating the stock
  :func:`~repro.observability.slo.simulation_slos` rule set must stay
  under 3% of an instrumented simulation.  The same region run is timed
  with metrics only ("disarmed") and again with allocation timelines
  collected and the finished run replayed through the rules by
  :func:`repro.report.replay_slos` ("armed"); the gate is on the
  armed/disarmed ratio, min-of-reps on both sides.  The armed run must
  also reconcile: the replayed windowed series sum to the simulator's
  ``KpiReport`` (replayed == batch).
* **alert_roundtrip**: the chaos scenario of
  :func:`repro.experiments.chaos.run_slo_chaos` -- a scheduled predictor
  outage and latency spike must fire and clear the stock alerts, and the
  replayed totals must match the ``KpiReport`` and, on logins, the
  traces' own session starts.

Run directly::

    PYTHONPATH=src python benchmarks/bench_observability.py          # full
    PYTHONPATH=src python benchmarks/bench_observability.py --quick  # CI
    PYTHONPATH=src python benchmarks/bench_observability.py --quick --out /tmp/fresh.json

or through pytest (quick scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_observability.py -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import List

from repro.config import DEFAULT_CONFIG, ProRPConfig
from repro.core.policy import PolicyKind
from repro.core.predictor import predict_next_activity
from repro.experiments.chaos import run_slo_chaos
from repro.experiments.common import ExperimentScale, region_fleet
from repro.observability import (
    NULL_TRACER,
    OBS,
    MetricsRegistry,
    SloMonitor,
    observed,
    simulation_slos,
)
from repro.report import replay_slos, slo_totals
from repro.simulation.region import simulate_region
from repro.storage.history import HistoryStore
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR, EventType
from repro.workload.regions import RegionPreset

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_observability.json"
QUICK_BASELINE_PATH = RESULTS_DIR / "BENCH_observability_quick.json"

#: Committed acceptance limits, stored next to the measurements so the
#: regression gate reads both from the same document.
NOOP_OVERHEAD_LIMIT = 0.02
SLO_OVERHEAD_LIMIT = 0.03

REGION = RegionPreset.EU1
#: Timing scale: big enough that the SLO cost (timeline collection and
#: the replay's window sums grow with the fleet, the per-boundary
#: evaluation does not) is measured against a representative run.
SLO_SCALE = ExperimentScale(n_databases=200, eval_days=1)
#: Chaos-scenario scale: the scheduled outage drives the slow reference
#: predictor, so the roundtrip stays on a small fleet.
CHAOS_SCALE = ExperimentScale(n_databases=60, eval_days=1)


# -- noop: the disabled-path guard --------------------------------------


def _daily_history(days: int = 28, logins_per_day: int = 6) -> HistoryStore:
    store = HistoryStore()
    for day in range(days):
        for k in range(logins_per_day):
            store.insert_history(
                day * DAY + 9 * HOUR + k * 45 * 60, EventType.ACTIVITY_START
            )
    return store


def _timed_loop(fn, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps


def _guard_cost_s(reps: int = 1_000_000) -> float:
    """Per-evaluation cost of the disabled-path guard (``if OBS.enabled``).

    Measured as the delta between a loop over the guard and the same empty
    loop, so the loop machinery (which the real call sites do not add) is
    excluded.  The guard itself is what the instrumented hot paths pay when
    observability is off: a global load, an attribute load, and a branch.
    """
    assert not OBS.enabled
    hits = 0
    start = time.perf_counter()
    for _ in range(reps):
        if OBS.enabled:
            hits += 1  # pragma: no cover - observability is off
    guarded = time.perf_counter() - start
    assert hits == 0
    start = time.perf_counter()
    for _ in range(reps):
        pass
    empty = time.perf_counter() - start
    return max(0.0, guarded - empty) / reps


def _noop_section(reps: int = 50) -> dict:
    config = ProRPConfig()
    store = _daily_history()
    now = 28 * DAY

    assert not OBS.enabled  # the repo-wide default
    disabled_s = _timed_loop(
        lambda: predict_next_activity(store, config, now), reps
    )

    with observed(tracer=NULL_TRACER):
        enabled_s = _timed_loop(
            lambda: predict_next_activity(store, config, now), reps
        )
        registry = OBS.metrics
        # Guard evaluations per prediction: each of these counters sits
        # behind exactly one `if OBS.enabled` check that fired once per
        # unit increment.
        guard_evals = (
            registry.counter("predictor.reference.calls").value
            + registry.counter("history.range_queries").value
            + registry.counter("btree.range_scans").value
        ) / reps
        latency = registry.histogram("predictor.reference.latency_ms").snapshot()

    guard_s = _guard_cost_s()
    overhead_fraction = guard_evals * guard_s / disabled_s
    return {
        "reps": reps,
        "disabled_us_per_prediction": round(disabled_s * 1e6, 3),
        "enabled_metrics_us_per_prediction": round(enabled_s * 1e6, 3),
        "guard_evals_per_prediction": round(guard_evals, 1),
        "guard_cost_ns": round(guard_s * 1e9, 3),
        "noop_overhead_fraction": round(overhead_fraction, 6),
        "noop_overhead_limit": NOOP_OVERHEAD_LIMIT,
        "predictor_reference_latency_ms": latency,
    }


# -- slo: the armed monitoring layer ------------------------------------


def _slo_section(reps: int) -> dict:
    traces = region_fleet(REGION, SLO_SCALE)
    settings = SLO_SCALE.settings()
    armed_settings = SLO_SCALE.settings(collect_timelines=True)
    labels = {"region": REGION.value}

    def run_disarmed() -> float:
        registry = MetricsRegistry()
        start = time.perf_counter()
        with observed(tracer=NULL_TRACER, metrics=registry):
            simulate_region(
                traces, PolicyKind.PROACTIVE, DEFAULT_CONFIG, settings
            )
        return time.perf_counter() - start

    def run_armed():
        registry = MetricsRegistry()
        monitor = SloMonitor(registry, simulation_slos(labels=labels))
        start = time.perf_counter()
        with observed(tracer=NULL_TRACER, metrics=registry):
            result = simulate_region(
                traces, PolicyKind.PROACTIVE, DEFAULT_CONFIG, armed_settings
            )
        totals = replay_slos(result, traces, monitor)
        return time.perf_counter() - start, registry, result, totals

    # Warm both paths once (predictor caches, lazy imports) untimed.
    run_disarmed()
    armed_times: List[float] = []
    disarmed_times: List[float] = []
    registry = result = totals = None
    for _ in range(reps):
        disarmed_times.append(run_disarmed())
        armed_s, registry, result, totals = run_armed()
        armed_times.append(armed_s)

    disarmed_s = min(disarmed_times)
    armed_s = min(armed_times)
    overhead = armed_s / disarmed_s - 1.0 if disarmed_s > 0 else 0.0
    equivalence_ok = totals == slo_totals(result.kpis())
    return {
        "reps": reps,
        "n_databases": SLO_SCALE.n_databases,
        "eval_days": SLO_SCALE.eval_days,
        "disarmed_s": round(disarmed_s, 4),
        "armed_s": round(armed_s, 4),
        "slo_overhead_fraction": round(max(0.0, overhead), 6),
        "slo_overhead_limit": SLO_OVERHEAD_LIMIT,
        "slo_evaluations": registry.counter("slo.evaluations").value,
        "equivalence_ok": 1 if equivalence_ok else 0,
    }


# -- alert_roundtrip: the chaos scenario --------------------------------


def _alert_roundtrip_section() -> dict:
    result = run_slo_chaos(scale=CHAOS_SCALE, preset=REGION)
    return {
        "n_databases": CHAOS_SCALE.n_databases,
        "unavailable_fired_at": result.unavailable_fired_at,
        "unavailable_cleared_at": result.unavailable_cleared_at,
        "latency_fired_at": result.latency_fired_at,
        "latency_cleared_at": result.latency_cleared_at,
        "alert_events": len(result.alert_events),
        "roundtrip_ok": 1 if result.alert_roundtrip_ok else 0,
        "equivalence_ok": 1 if result.equivalence_ok else 0,
        "ok": 1 if result.ok else 0,
    }


# -- harness ------------------------------------------------------------


def run_bench(quick: bool = False) -> dict:
    return {
        "quick": quick,
        "noop": _noop_section(reps=50),
        "slo": _slo_section(reps=2 if quick else 5),
        "alert_roundtrip": _alert_roundtrip_section(),
    }


def _check(result: dict) -> None:
    noop = result["noop"]
    assert noop["noop_overhead_fraction"] < noop["noop_overhead_limit"], (
        f"disabled observability costs {noop['noop_overhead_fraction']:.2%} "
        f"of a reference prediction (limit {noop['noop_overhead_limit']:.0%})"
    )
    slo = result["slo"]
    assert slo["equivalence_ok"], (
        "replayed KPI series diverged from the simulator's KpiReport"
    )
    assert slo["slo_evaluations"] > 0, "the SLO monitor never evaluated"
    roundtrip = result["alert_roundtrip"]
    assert roundtrip["ok"], (
        "the SLO chaos scenario did not round-trip (alerts or equivalence)"
    )
    if not result["quick"]:
        # Wall-clock ratio asserted only on the full (local) run; CI
        # gates it through check_regression.py against the quick baseline
        # where the shared-runner noise is tolerated explicitly.
        assert slo["slo_overhead_fraction"] < slo["slo_overhead_limit"], (
            f"the SLO replay costs {slo['slo_overhead_fraction']:.2%} "
            f"over the metrics-only run (limit {slo['slo_overhead_limit']:.0%})"
        )


def _report(result: dict) -> str:
    noop, slo, rt = result["noop"], result["slo"], result["alert_roundtrip"]
    return "\n".join(
        [
            "Observability overhead"
            + (" (quick)" if result["quick"] else ""),
            f"  noop guard: {noop['guard_cost_ns']} ns/eval x "
            f"{noop['guard_evals_per_prediction']} evals = "
            f"{noop['noop_overhead_fraction']:.3%} of a prediction "
            f"(limit {noop['noop_overhead_limit']:.0%})",
            f"  slo armed vs disarmed at {slo['n_databases']} dbs: "
            f"{slo['armed_s']}s vs {slo['disarmed_s']}s "
            f"(+{slo['slo_overhead_fraction']:.3%}, limit "
            f"{slo['slo_overhead_limit']:.0%}), "
            f"{slo['slo_evaluations']} evaluations, "
            f"replayed==batch: {bool(slo['equivalence_ok'])}",
            f"  alert roundtrip: fired at {rt['unavailable_fired_at']}, "
            f"cleared at {rt['unavailable_cleared_at']}, "
            f"latency p99 fired at {rt['latency_fired_at']}, "
            f"{rt['alert_events']} ledger events, ok: {bool(rt['ok'])}",
        ]
    )


def bench_observability(record_table) -> None:
    """Pytest entry: quick scale, deterministic assertions only."""
    result = run_bench(quick=True)
    record_table("observability", _report(result))
    _check(result)


def main(argv: List[str]) -> int:
    quick = "--quick" in argv
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
    else:
        out = QUICK_BASELINE_PATH if quick else BASELINE_PATH
    result = run_bench(quick=quick)
    print(_report(result))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    _check(result)
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
