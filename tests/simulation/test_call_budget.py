"""A budget on the Python calls the columnar engine makes per event.

Host time per simulated event is mostly interpreter overhead, so the
number of Python calls per event is the deterministic proxy for it: a
change that adds calls to the hot path shows here before any clock can
see it.  The counter takes every ``call`` event of a frame whose code
lives in the ``repro`` package.  Dataclass-generated methods (their code
claims no file), the standard library, numpy and comprehension frames
(inlined since Python 3.12) are not counted, so the count should not
depend on the interpreter; the budget was measured on CPython 3.11.

The same region also pins the kernel traffic: the refreshes that found
no parked answer (``HOT_PATH.cache_misses``, each opens a speculation
batch) and the ``predict_fleet`` calls (``HOT_PATH.batch_evals``) of one
pass.  Both are exact integer counts, so a change to how refreshes are
batched shows here at once.

Run as a script, it prints the count per event, the misses and the
kernel calls for the ``fleet_day`` and ``region_month`` benchmark
workloads at ``--smoke`` scale (1/20)::

    PYTHONPATH=src python tests/simulation/test_call_budget.py
"""

import dataclasses
import os
import sys

import repro
from repro.config import DEFAULT_CONFIG
from repro.core.prediction_cache import HOT_PATH
from repro.simulation.columnar import ColumnarRegionEngine
from repro.simulation.fleet import simulate_fleet
from repro.simulation.region import SimulationSettings, simulate_region
from repro.types import SECONDS_PER_DAY as DAY
from repro.workload.fleetgen import FleetShardSpec

_PACKAGE = os.path.dirname(repro.__file__) + os.sep
_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})

#: Repro-frame calls per dispatched event on a 1,000-database
#: ``fleet_day`` region, seed 1; the test allows 5 % above it.
FLEET_CALLS_PER_EVENT = 14.59

#: Refreshes with no parked answer and ``predict_fleet`` calls in one pass
#: of the same region.  Without the follow-up round of a speculation
#: batch both read 160: every one-second re-decision opened a batch.
FLEET_MISSES_PER_PASS = 61
FLEET_KERNEL_CALLS_PER_PASS = 100


def calls_per_event(run) -> float:
    """Run ``run()`` under the counter: repro-frame calls per event
    dispatched by every columnar engine it drives."""
    calls = events = 0
    run_until = ColumnarRegionEngine.run_until

    def counting_run_until(engine, end):
        nonlocal events
        executed = run_until(engine, end)
        events += executed
        return executed

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if (
                code.co_filename.startswith(_PACKAGE)
                and code.co_name not in _COMPREHENSIONS
            ):
                calls += 1

    ColumnarRegionEngine.run_until = counting_run_until
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        ColumnarRegionEngine.run_until = run_until
    return calls / events


def _fleet_day(n: int, seed: int = 1):
    """The ``fleet_day`` workload's region: 4-day span, 2 days of
    history, the last day evaluated, node headroom so nothing moves."""
    spec = FleetShardSpec(n_databases=n, span_days=4, seed=seed)
    fleet = spec.materialize()
    config = dataclasses.replace(DEFAULT_CONFIG, history_days=2)
    settings = SimulationSettings(
        eval_start=3 * DAY, eval_end=4 * DAY, n_nodes=-(-n // 48), node_capacity=64
    )
    return lambda: simulate_fleet(fleet, "proactive", config, settings)


def _region_month(n: int, seed: int = 1):
    """The ``region_month`` workload: reactive then proactive over a
    35-day EU1 region, 3 days evaluated, Table 1 knobs."""
    from repro.experiments.common import ExperimentScale
    from repro.workload.regions import RegionPreset, generate_region_traces

    scale = ExperimentScale(n_databases=n, span_days=35, eval_days=3, seed=seed)
    traces = generate_region_traces(RegionPreset.EU1, n, span_days=35, seed=seed)
    settings = SimulationSettings(eval_start=scale.eval_start, eval_end=scale.eval_end)

    def run():
        simulate_region(traces, "reactive", DEFAULT_CONFIG, settings)
        simulate_region(traces, "proactive", DEFAULT_CONFIG, settings)

    return run


def test_calls_per_event_within_budget():
    measured = calls_per_event(_fleet_day(1000))
    assert measured <= FLEET_CALLS_PER_EVENT * 1.05, (
        f"{measured:.2f} repro-frame calls per event, budget "
        f"{FLEET_CALLS_PER_EVENT} + 5 %"
    )


def test_kernel_calls_per_pass_pinned():
    HOT_PATH.reset()
    _fleet_day(1000)()
    assert (HOT_PATH.cache_misses, HOT_PATH.batch_evals) == (
        FLEET_MISSES_PER_PASS,
        FLEET_KERNEL_CALLS_PER_PASS,
    )


if __name__ == "__main__":
    # The e2e harness's --smoke sizes: max(200, 10k / 20) and max(40, 600 / 20).
    for name, run in (("fleet_day", _fleet_day(500)), ("region_month", _region_month(40))):
        HOT_PATH.reset()
        per_event = calls_per_event(run)
        print(
            f"{name}: {per_event:.2f} repro-frame calls per event, "
            f"{HOT_PATH.cache_misses} misses, {HOT_PATH.batch_evals} kernel calls"
        )
