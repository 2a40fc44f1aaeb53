"""Headline benchmark for the batched prediction hot path.

Two sections, both on a region fleet (>= 200 databases at full scale):

* **Batched fleet prediction**: D per-database :meth:`FastPredictor.
  predict` calls vs one :meth:`FastPredictor.predict_fleet` call over the
  same login arrays.  The batch must run >= 3x fewer full Algorithm-4
  scans (it pays one kernel pass instead of D) and, at full scale, win
  on wall clock; the answers must be identical.
* **Settle batch**: one proactive region simulation, reported in counts:
  how many ``predict_fleet`` calls the settle phase made, how many
  databases they covered and how many of those answers ``start(d)`` took
  in place of a scan, beside the single-database scans of the event loop.

Baselines are committed under ``benchmarks/results/``: the full run
writes ``BENCH_fleet_hotpath.json``, the ``--quick`` variant writes
``BENCH_fleet_hotpath_quick.json``.  CI re-runs the quick variant to a
scratch directory and ``benchmarks/check_regression.py`` compares its
scale-robust ratio metrics against the committed quick baseline.

Run directly for a human-readable report::

    PYTHONPATH=src python benchmarks/bench_fleet_hotpath.py          # full
    PYTHONPATH=src python benchmarks/bench_fleet_hotpath.py --quick  # CI
    PYTHONPATH=src python benchmarks/bench_fleet_hotpath.py --quick --out /tmp/fresh.json

or through pytest (quick scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet_hotpath.py -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import List

import numpy as np

from repro.config import DEFAULT_CONFIG
from repro.core.fast_predictor import FastPredictor
from repro.core.prediction_cache import HOT_PATH
from repro.simulation.region import SimulationSettings, simulate_region
from repro.types import SECONDS_PER_DAY, ActivityTrace
from repro.workload.regions import RegionPreset, generate_region_traces

DAY = SECONDS_PER_DAY

#: Where committed baselines live, by repo convention.
RESULTS_DIR = Path(__file__).resolve().parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_fleet_hotpath.json"
QUICK_BASELINE_PATH = RESULTS_DIR / "BENCH_fleet_hotpath_quick.json"

FULL_DATABASES = 250
QUICK_DATABASES = 60
SPAN_DAYS = 31
NOW = 29 * DAY


def _fleet(n_databases: int) -> List[ActivityTrace]:
    return generate_region_traces(
        RegionPreset.EU1, n_databases, span_days=SPAN_DAYS, seed=0
    )


def _login_arrays(traces: List[ActivityTrace], now: int) -> List[np.ndarray]:
    """Per-database sorted login timestamps within the retention window,
    as the history store would hold them at ``now``."""
    start = now - DEFAULT_CONFIG.history_days * DAY
    return [
        np.array(
            [s.start for s in trace.sessions if start <= s.start < now],
            dtype=np.int64,
        )
        for trace in traces
    ]


def _min_of(reps: int, fn) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_bench(quick: bool = False) -> dict:
    n_databases = QUICK_DATABASES if quick else FULL_DATABASES
    reps = 2 if quick else 5
    traces = _fleet(n_databases)

    # -- one fleet sweep: D predict() calls vs one predict_fleet() -------
    predictor = FastPredictor(DEFAULT_CONFIG)
    fleets = _login_arrays(traces, NOW)
    singles = [predictor.predict(logins, NOW) for logins in fleets]  # warm
    batched = predictor.predict_fleet(fleets, NOW)
    assert batched == singles, "predict_fleet diverged from per-database predict"

    HOT_PATH.reset()
    for logins in fleets:
        predictor.predict(logins, NOW)
    loop_invocations = HOT_PATH.predictor_invocations
    HOT_PATH.reset()
    predictor.predict_fleet(fleets, NOW)
    batch_invocations = HOT_PATH.predictor_invocations

    loop_s = _min_of(reps, lambda: [predictor.predict(a, NOW) for a in fleets])
    batch_s = _min_of(reps, lambda: predictor.predict_fleet(fleets, NOW))

    # -- the settle batch of one region simulation, in counts -----------
    # Evaluate the final day: the 1-day warm-up puts sim_start at day 30,
    # leaving >28 days of lifespan so the fleet is "old" (predictable)
    # and the settle phase has databases to batch.
    settings = SimulationSettings(eval_start=30 * DAY, eval_end=31 * DAY)
    HOT_PATH.reset()
    start = time.perf_counter()
    simulate_region(traces, "proactive", DEFAULT_CONFIG, settings)
    sim_s = time.perf_counter() - start
    hot = HOT_PATH.snapshot()

    return {
        "quick": quick,
        "n_databases": n_databases,
        "fleet_sweep": {
            "loop_full_scans": loop_invocations,
            "batch_invocations": batch_invocations,
            "scan_reduction": round(loop_invocations / batch_invocations, 1),
            "loop_s": round(loop_s, 4),
            "batch_s": round(batch_s, 4),
            "speedup": round(loop_s / batch_s, 2) if batch_s > 0 else 0.0,
        },
        "settle_batch": {
            "batch_evals": hot["batch_evals"],
            "batch_databases": hot["batch_databases"],
            "answers_taken": hot["cache_hits"],
            "full_scans": hot["full_scans"],
            "simulation_s": round(sim_s, 3),
        },
    }


def _check(result: dict) -> None:
    sweep = result["fleet_sweep"]
    settle = result["settle_batch"]
    assert sweep["scan_reduction"] >= 3.0, (
        f"expected >= 3x fewer full scans from batching, got "
        f"{sweep['scan_reduction']}x"
    )
    assert settle["batch_evals"] >= 1, "the settle phase did not batch"
    assert settle["answers_taken"] == settle["batch_databases"] > 0, (
        f"an un-faulted start loop takes every settle answer: "
        f"{settle['answers_taken']} of {settle['batch_databases']}"
    )
    if not result["quick"]:
        # Wall-clock is asserted at full scale only; the quick CI variant
        # sticks to the deterministic invocation counts.
        assert sweep["batch_s"] < sweep["loop_s"], (
            f"batched prediction lost on wall clock: "
            f"{sweep['batch_s']}s vs {sweep['loop_s']}s"
        )


def _report(result: dict) -> str:
    sweep = result["fleet_sweep"]
    settle = result["settle_batch"]
    return "\n".join(
        [
            f"Fleet prediction hot path, {result['n_databases']} databases"
            + (" (quick)" if result["quick"] else ""),
            f"  sweep: {sweep['loop_full_scans']} per-DB scans -> "
            f"{sweep['batch_invocations']} batched invocation(s) "
            f"({sweep['scan_reduction']}x fewer)",
            f"  sweep wall: loop {sweep['loop_s']}s vs batch {sweep['batch_s']}s "
            f"({sweep['speedup']}x)",
            f"  settle batch: {settle['batch_evals']} predict_fleet call(s) over "
            f"{settle['batch_databases']} databases, "
            f"{settle['answers_taken']} answers taken by start()",
            f"  event loop: {settle['full_scans']} single-database scans; "
            f"simulation wall {settle['simulation_s']}s",
        ]
    )


def bench_fleet_hotpath(record_table) -> None:
    """Pytest entry: quick scale, deterministic assertions only."""
    result = run_bench(quick=True)
    record_table("fleet_hotpath", _report(result))
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
