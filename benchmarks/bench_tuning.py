"""Online tuning vs the static monthly sweep under concept drift.

The paper re-derives its ``(l, c, w)`` knobs from a monthly offline
sweep, so a fleet whose behaviour changes mid-month serves a stale
config until the next sweep.  This benchmark materialises exactly that
failure mode and measures how much the online tuner + predictor bank
(:mod:`repro.tuning`) recovers:

* **scenarios**: drifted fleets (``archetype_switch`` -- the fleet is
  re-purposed; ``dst_shift`` -- every schedule moves by three hours, a
  daylight-saving/holiday change) with the drift landing *mid-evaluation*.
  The static arm keeps the swept-for-the-old-fleet config; the online
  arm runs :func:`repro.tuning.driver.run_online_tuning` with the
  successive-halving challenger population and the two-policy
  predictor bank over the same aligned windows.  The headline per
  scenario is the paper objective (:func:`qos_priority_objective`) on
  the merged evaluation span -- the acceptance gate is that the online
  arm **dominates** (never loses to) the static baseline on every
  drift scenario.
* **sanity**: a single-candidate, bank-less online run must reproduce
  the static series exactly (the no-op configuration is byte-identical
  by construction; the benchmark re-asserts it on the drifted fleet).

Baselines are committed under ``benchmarks/results/``: the full run
(seeds 1-3 per scenario) writes ``BENCH_tuning.json``; the ``--quick``
variant (one seed) writes ``BENCH_tuning_quick.json``.  CI re-runs the
quick variant to a scratch directory and ``benchmarks/check_regression.py``
gates the dominance booleans and QoS/COGS ratios against the committed
quick baseline.

Run directly for a human-readable report::

    PYTHONPATH=src python benchmarks/bench_tuning.py          # full
    PYTHONPATH=src python benchmarks/bench_tuning.py --quick  # CI
    PYTHONPATH=src python benchmarks/bench_tuning.py --quick --out /tmp/fresh.json

or through pytest (quick scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_tuning.py -q
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro.config import ProRPConfig
from repro.simulation.region import SimulationSettings
from repro.training.objective import qos_priority_objective
from repro.tuning import candidate_population, default_candidates
from repro.tuning.driver import run_online_tuning
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.workload.fleetgen import DriftSpec, FleetShardSpec

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_tuning.json"
QUICK_BASELINE_PATH = RESULTS_DIR / "BENCH_tuning_quick.json"

N_DATABASES = 60
SPAN_DAYS = 15
DRIFT_DAY = 10
EVAL_START_DAY = 9
N_WINDOWS = 5
QUICK_SEEDS = (2,)
FULL_SEEDS = (1, 2, 3)

#: The "stale sweep" baseline: knobs tuned tight for the pre-drift
#: fleet (short logical pause, narrow window, short history), exactly
#: the shape a monthly offline sweep would have locked in.
BASELINE = ProRPConfig(
    logical_pause_s=3 * HOUR,
    window_s=2 * HOUR,
    slide_s=15 * 60,
    confidence=0.3,
    history_days=7,
)

SCENARIO_KINDS = ("archetype_switch", "dst_shift")
SHIFT_MINUTES = 180
POLICIES = ("sliding", "hybrid_histogram")
ONLINE_WARMUP_S = 3 * DAY

#: Allowed COGS give-back: online idle may exceed static idle by at
#: most this many percentage points (the objective already penalises
#: idle above its 15% cap 10:1, so real runs sit far inside this).
IDLE_SLACK_PERCENT = 10.0


def _drift(kind: str, seed: int) -> DriftSpec:
    base = FleetShardSpec(
        n_databases=N_DATABASES, span_days=SPAN_DAYS, seed=seed
    )
    return DriftSpec(
        base, kind=kind, at_day=DRIFT_DAY, shift_minutes=SHIFT_MINUTES
    )


def _settings() -> SimulationSettings:
    return SimulationSettings(
        eval_start=EVAL_START_DAY * DAY, eval_end=(EVAL_START_DAY + 1) * DAY
    )


def _run_seed(kind: str, seed: int, workers: int) -> dict:
    fleet = _drift(kind, seed)
    challengers = candidate_population(
        BASELINE, default_candidates(BASELINE)
    )
    start = time.perf_counter()
    report = run_online_tuning(
        fleet,
        BASELINE,
        challengers,
        n_windows=N_WINDOWS,
        settings=_settings(),
        policies=POLICIES,
        online_warmup_s=ONLINE_WARMUP_S,
        workers=workers,
    )
    wall_s = time.perf_counter() - start
    return {
        "online_score": round(report.online_score, 3),
        "static_score": round(report.static_score, 3),
        "online_qos_percent": report.online_kpis.qos_percent,
        "static_qos_percent": report.static_kpis.qos_percent,
        "online_idle_percent": report.online_kpis.idle_percent,
        "static_idle_percent": report.static_kpis.idle_percent,
        "promotions": report.promotions,
        "demotions": report.demotions,
        "windows": len(report.windows),
        "dominates": report.dominates_static,
        "wall_s": round(wall_s, 3),
    }


def _scenario(kind: str, seeds, workers: int) -> dict:
    per_seed: Dict[str, dict] = {
        str(seed): _run_seed(kind, seed, workers) for seed in seeds
    }
    runs = list(per_seed.values())
    static_qos = max(
        1e-9, sum(r["static_qos_percent"] for r in runs) / len(runs)
    )
    online_qos = sum(r["online_qos_percent"] for r in runs) / len(runs)
    static_idle = max(r["static_idle_percent"] for r in runs)
    return {
        "seeds": list(seeds),
        "per_seed": per_seed,
        "online_score": round(
            sum(r["online_score"] for r in runs) / len(runs), 3
        ),
        "static_score": round(
            sum(r["static_score"] for r in runs) / len(runs), 3
        ),
        "score_delta": round(
            sum(r["online_score"] - r["static_score"] for r in runs)
            / len(runs),
            3,
        ),
        # QoS ratio (higher is better) and a COGS guard: the worst-seed
        # online idle must stay within IDLE_SLACK_PERCENT points of the
        # worst-seed static idle.
        "qos_ratio": round(online_qos / static_qos, 3),
        "online_idle_percent": round(
            max(r["online_idle_percent"] for r in runs), 3
        ),
        "idle_guard_percent": round(static_idle + IDLE_SLACK_PERCENT, 3),
        "dominates": all(r["dominates"] for r in runs),
        "promotions": sum(r["promotions"] for r in runs),
    }


def _sanity(seed: int) -> dict:
    """Single-candidate, bank-less online run == the static series."""
    fleet = _drift("dst_shift", seed)
    report = run_online_tuning(
        fleet, BASELINE, challengers=(), n_windows=2, settings=_settings()
    )
    identical = (
        report.online_kpis.to_dict() == report.static_kpis.to_dict()
        and report.online_score == report.static_score
        and report.promotions == 0
        and report.demotions == 0
    )
    return {"identical": identical, "score": round(report.online_score, 3)}


def run_bench(quick: bool = False) -> dict:
    seeds = QUICK_SEEDS if quick else FULL_SEEDS
    workers = min(4, os.cpu_count() or 1)
    scenarios = {
        kind: _scenario(kind, seeds, workers) for kind in SCENARIO_KINDS
    }
    return {
        "quick": quick,
        "n_databases": N_DATABASES,
        "span_days": SPAN_DAYS,
        "drift_day": DRIFT_DAY,
        "n_windows": N_WINDOWS,
        "shift_minutes": SHIFT_MINUTES,
        "policies": list(POLICIES),
        "baseline": {
            "logical_pause_s": BASELINE.logical_pause_s,
            "window_s": BASELINE.window_s,
            "slide_s": BASELINE.slide_s,
            "confidence": BASELINE.confidence,
            "history_days": BASELINE.history_days,
        },
        "scenarios": scenarios,
        "dominant_scenarios": sum(
            1 for s in scenarios.values() if s["dominates"]
        ),
        "static_sanity": _sanity(seeds[0]),
    }


def _check(result: dict) -> None:
    assert result["static_sanity"]["identical"], (
        "single-candidate bank-less run diverged from the static series"
    )
    for kind, scenario in result["scenarios"].items():
        for seed, run in scenario["per_seed"].items():
            assert run["windows"] == N_WINDOWS, (
                f"{kind} seed {seed} completed {run['windows']} windows, "
                f"expected {N_WINDOWS}"
            )
        assert (
            scenario["online_idle_percent"] <= scenario["idle_guard_percent"]
        ), f"{kind}: online idle blew the COGS guard"
    # The acceptance gate: online tuning dominates the stale static
    # sweep on at least two drift scenarios.
    assert result["dominant_scenarios"] >= 2, (
        f"online tuning dominated only {result['dominant_scenarios']} "
        f"drift scenario(s), need >= 2"
    )


def _report(result: dict) -> str:
    lines = [
        f"Online tuning vs static sweep under drift "
        f"({result['n_databases']} dbs, drift at day {result['drift_day']}, "
        f"{result['n_windows']} windows"
        + (", quick)" if result["quick"] else ")")
    ]
    for kind, scenario in result["scenarios"].items():
        lines.append(
            f"  {kind}: online {scenario['online_score']} vs static "
            f"{scenario['static_score']} (delta {scenario['score_delta']}, "
            f"qos ratio {scenario['qos_ratio']}), "
            f"idle {scenario['online_idle_percent']}% "
            f"(guard {scenario['idle_guard_percent']}%), "
            f"{scenario['promotions']} promotions, dominates: "
            f"{scenario['dominates']}"
        )
    sanity = result["static_sanity"]
    lines.append(
        f"  sanity: no-op online == static: {sanity['identical']} "
        f"(score {sanity['score']})"
    )
    lines.append(
        f"  dominant scenarios: {result['dominant_scenarios']}/"
        f"{len(result['scenarios'])}"
    )
    return "\n".join(lines)


def bench_tuning(record_table) -> None:
    """Pytest entry: quick scale, deterministic assertions only."""
    result = run_bench(quick=True)
    record_table("tuning", _report(result))
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
