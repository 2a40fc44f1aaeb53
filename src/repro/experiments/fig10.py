"""Figure 10: overhead of the online ProRP components.

Three CDFs over the fleet:
(a) history tuple counts -- the paper reports an average within ~500 per
    28-day retention and a worst case above 4K tuples;
(b) history size in KB at two 64-bit integers per tuple -- average within
    7 KB, worst case within 74 KB;
(c) wall-clock latency of the next-activity prediction (the *reference*
    stored-procedure implementation) -- average within 90 ms, worst case
    within 700 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis import EmpiricalCdf, format_table
from repro.config import DEFAULT_CONFIG, ProRPConfig
from repro.errors import SimulationError
from repro.experiments.common import BENCH_SCALE, ExperimentScale, region_fleet
from repro.observability.runtime import OBS, observed
from repro.observability.tracer import NULL_TRACER
from repro.simulation.region import simulate_region
from repro.workload.regions import RegionPreset

#: CDF probes printed per panel.
QUANTILES = (0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


@dataclass(frozen=True)
class Fig10Result:
    tuple_counts: EmpiricalCdf
    history_kb: EmpiricalCdf
    prediction_latency_ms: EmpiricalCdf

    def rows(self) -> List[Dict[str, float]]:
        out = []
        for q in QUANTILES:
            out.append(
                {
                    "quantile": q,
                    "tuples": self.tuple_counts.quantile(q),
                    "history_kb": self.history_kb.quantile(q),
                    "latency_ms": self.prediction_latency_ms.quantile(q),
                }
            )
        return out

    def table(self) -> str:
        rows = [
            [
                r["quantile"],
                round(r["tuples"], 0),
                round(r["history_kb"], 2),
                round(r["latency_ms"], 1),
            ]
            for r in self.rows()
        ]
        headline = (
            f"measured mean: {self.tuple_counts.mean():.0f} tuples, "
            f"{self.history_kb.mean():.2f} KB, "
            f"{self.prediction_latency_ms.mean():.1f} ms"
        )
        return format_table(
            ["quantile", "tuples (10a)", "history KB (10b)", "latency ms (10c)"],
            rows,
            title=(
                "Figure 10: ProRP overhead CDFs [paper: avg <=500 tuples / "
                f"7 KB / 90 ms; max >4K / 74 KB / 700 ms] -- {headline}"
            ),
        )


def _chatty_tail(scale: ExperimentScale):
    """A handful of connection-pool-flapping databases: the rare tail that
    carries Figure 10(a)'s worst case (histories above 4K tuples).  They
    are ~0.2% of the region mixtures, so a small fleet sample would often
    miss them; the overhead study includes them explicitly (about 1.5% of
    the panel fleet) to make the tail deterministic."""
    from repro.workload.archetypes import DailyBusinessHours
    from repro.workload.generator import FleetSpec, generate_fleet

    spec = FleetSpec(
        mixture=(
            ("chatty", 1.0, lambda r: DailyBusinessHours(
                workday_start_h=7.0 + r.uniform(-1, 1),
                workday_end_h=22.0 + r.uniform(-1, 1),
                breaks_per_day=r.uniform(30, 80),
                break_minutes=r.uniform(3, 8),
                weekdays_only=False,
                skip_day_probability=0.0,
            )),
        ),
        new_database_fraction=0.0,
    )
    n_tail = max(2, scale.n_databases // 64)
    return generate_fleet(
        spec, n_tail, scale.span_days, seed=scale.seed, id_prefix="tail"
    )


def run_fig10(
    scale: Optional[ExperimentScale] = None,
    preset: RegionPreset = RegionPreset.EU1,
    config: ProRPConfig = DEFAULT_CONFIG,
) -> Fig10Result:
    """Run the proactive policy on the reference predictor, whose every
    call feeds the ``predictor.reference.latency_ms`` histogram, and
    collect the per-database history footprints at the end of the run."""
    if scale is None:
        # One eval day over the full bench fleet keeps the reference
        # predictor's total cost to a few seconds.
        scale = BENCH_SCALE.smaller(n_databases=BENCH_SCALE.n_databases, eval_days=1)
    traces = region_fleet(preset, scale) + _chatty_tail(scale)
    settings = scale.settings(use_fast_predictor=False)
    if OBS.enabled:
        # Ambient observability (e.g. the CLI's --metrics-out): reuse it.
        result = simulate_region(traces, "proactive", config, settings)
        registry = OBS.metrics
    else:
        # Panel (c) reads the live metrics layer directly: metrics-only
        # (spans off -- tracing every engine event would perturb the very
        # latency being measured).
        with observed(tracer=NULL_TRACER):
            result = simulate_region(traces, "proactive", config, settings)
            registry = OBS.metrics
    tuple_counts = EmpiricalCdf(
        [store.tuple_count for store in result.histories.values()]
    )
    history_kb = EmpiricalCdf(
        [store.size_bytes() / 1024.0 for store in result.histories.values()]
    )
    histogram = registry.histogram("predictor.reference.latency_ms")
    samples = list(histogram.samples)
    if len(samples) != histogram.count:
        # Beyond ~65K predictions the histogram keeps bucket counts only;
        # the CDF would have to be interpolated, so refuse instead.
        raise SimulationError(
            f"predictor.reference.latency_ms kept {len(samples)} of "
            f"{histogram.count} samples; shrink the fleet or eval window"
        )
    latencies = EmpiricalCdf(samples)
    return Fig10Result(
        tuple_counts=tuple_counts,
        history_kb=history_kb,
        prediction_latency_ms=latencies,
    )
