"""Micro-benchmarks for the fault-injection subsystem.

Two guarantees are bounded here and committed as a baseline in
``benchmarks/results/BENCH_faults.json``:

* **Disabled overhead**: with ``FAULTS`` disarmed (the repo-wide default),
  every fault point costs one guard check (global load, attribute load,
  branch).  The number of guard evaluations a fleet simulation performs is
  counted by arming a probability-0 plan over every fault point (each
  consultation is ledgered but nothing fires), the per-guard cost is
  measured with a tight loop, and the product must stay under 2% of the
  disarmed simulation's runtime.
* **Armed-empty identity**: arming the injector with an *empty* plan must
  leave the simulation byte-identical to a disarmed run -- points absent
  from a plan consume no randomness and alter no behaviour.
"""

import json
import time

from repro.config import DEFAULT_CONFIG
from repro.core.policy import PolicyKind
from repro.experiments.common import TEST_SCALE, region_fleet
from repro.faults import FAULTS, FaultInjector, FaultPlan, FaultSpec, chaos
from repro.faults.plan import FAULT_POINTS
from repro.simulation.region import simulate_region
from repro.workload.regions import RegionPreset

#: Every fault point the codebase consults (docs/resilience.md catalog).
#: Only the simulation's points see consults below; the control-plane,
#: WAL, SQL and serving points are armed at probability 0 all the same.
ALL_FAULT_POINTS = FAULT_POINTS


def _guard_cost_s(reps: int = 1_000_000) -> float:
    """Per-evaluation cost of the disarmed guard (``if FAULTS.enabled``),
    measured as the delta between a guarded loop and an empty loop."""
    assert not FAULTS.enabled
    hits = 0
    start = time.perf_counter()
    for _ in range(reps):
        if FAULTS.enabled:
            hits += 1  # pragma: no cover - faults are off
    guarded = time.perf_counter() - start
    assert hits == 0
    start = time.perf_counter()
    for _ in range(reps):
        pass
    empty = time.perf_counter() - start
    return max(0.0, guarded - empty) / reps


def _simulate(traces):
    return simulate_region(
        traces, PolicyKind.PROACTIVE, DEFAULT_CONFIG, TEST_SCALE.settings()
    ).kpis()


def bench_injector_should_fire(benchmark):
    """The armed hot path: one consultation of a planned point."""
    injector = FaultInjector(
        FaultPlan.of(FaultSpec("sql.execute", probability=0.5)), seed=1
    )
    benchmark(injector.should_fire, "sql.execute", 1000)
    assert injector.total_consults() > 0


def bench_injector_unplanned_point(benchmark):
    """Consulting a point absent from the plan: one dict miss, no RNG."""
    injector = FaultInjector(FaultPlan.of(FaultSpec("sql.execute")), seed=1)
    benchmark(injector.should_fire, "cluster.node.crash", 1000)
    assert injector.total_fires() == 0


def bench_faults_disabled_overhead(results_dir):
    """Disarmed fault points must cost <2% of a fleet simulation.

    Also asserts the armed-empty identity: an armed injector with an empty
    plan produces KPIs byte-identical to the disarmed run.
    """
    traces = region_fleet(RegionPreset.EU1, TEST_SCALE)
    _simulate(traces)  # warm the trace/predictor caches

    assert not FAULTS.enabled  # the repo-wide default
    start = time.perf_counter()
    disabled_kpis = _simulate(traces)
    disabled_s = time.perf_counter() - start

    with chaos(FaultPlan.empty(), seed=TEST_SCALE.seed) as injector:
        armed_empty_kpis = _simulate(traces)
        assert injector.total_fires() == 0
    armed_empty_identical = armed_empty_kpis.to_dict() == disabled_kpis.to_dict()
    assert armed_empty_identical, "armed-empty run diverged from disarmed run"

    # Count the guard evaluations a simulation performs: a probability-0
    # plan over every point ledgers each consultation and fires nothing.
    zero_plan = FaultPlan.uniform(ALL_FAULT_POINTS, probability=0.0)
    with chaos(zero_plan, seed=TEST_SCALE.seed) as injector:
        zero_kpis = _simulate(traces)
        guard_evals = injector.total_consults()
        consults = dict(injector.consults)
        assert injector.total_fires() == 0
    assert zero_kpis.to_dict() == disabled_kpis.to_dict()

    guard_s = _guard_cost_s()
    overhead_fraction = guard_evals * guard_s / disabled_s
    baseline = {
        "fleet": {
            "n_databases": TEST_SCALE.n_databases,
            "eval_days": TEST_SCALE.eval_days,
        },
        "disabled_sim_s": round(disabled_s, 4),
        "guard_evals_per_sim": guard_evals,
        "guard_evals_by_point": consults,
        "guard_cost_ns": round(guard_s * 1e9, 3),
        "disabled_overhead_fraction": round(overhead_fraction, 8),
        "armed_empty_identical": armed_empty_identical,
    }
    path = results_dir / "BENCH_faults.json"
    path.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print()
    print(json.dumps(baseline, indent=2))
    assert overhead_fraction < 0.02, (
        f"disarmed fault points cost {overhead_fraction:.2%} of a fleet "
        f"simulation (limit 2%)"
    )
