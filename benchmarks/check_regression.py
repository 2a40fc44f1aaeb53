"""Benchmark regression gate for CI.

Compares freshly-run ``--quick`` benchmark JSONs against the committed
quick baselines in ``benchmarks/results/`` and fails when a headline
metric regresses more than the tolerance (default 25%).

Only scale-robust *ratio* metrics are gated -- speedups, scan
reductions -- never raw wall-clock numbers, which vary with the runner.
A check may list alternative keys: it passes when ANY of them holds,
mirroring the benchmark's own acceptance shape ("the batcher wins on p99
*or* throughput").  Absolute invariants (the overload run sheds, depth
stays bounded) are asserted on the fresh run alone.

Usage (CI runs exactly this)::

    PYTHONPATH=src python benchmarks/bench_fleet_hotpath.py --quick --out /tmp/bench_fresh/BENCH_fleet_hotpath_quick.json
    PYTHONPATH=src python benchmarks/bench_serving.py --quick --out /tmp/bench_fresh/BENCH_serving_quick.json
    python benchmarks/check_regression.py --fresh-dir /tmp/bench_fresh
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Tuple

RESULTS_DIR = Path(__file__).resolve().parent / "results"
DEFAULT_TOLERANCE = 0.25


class MissingMetricError(KeyError):
    """A check referenced a key the results document does not contain."""


def lookup(doc: dict, dotted: str) -> float:
    """Resolve ``"closed_loop.8.p99_speedup"`` against a nested dict."""
    node = doc
    for part in dotted.split("."):
        try:
            node = node[part]
        except (KeyError, TypeError):
            raise MissingMetricError(
                f"metric {dotted!r} not found (missing at {part!r}) -- "
                f"was the benchmark re-run with an older schema?"
            ) from None
    return float(node)


@dataclass(frozen=True)
class RatioCheck:
    """Higher-is-better metric(s): pass when any alternative's fresh
    value is within tolerance of (or better than) its baseline."""

    file: str
    name: str
    alternatives: Tuple[str, ...]

    def run(self, baseline: dict, fresh: dict, tolerance: float) -> List[str]:
        details = []
        for key in self.alternatives:
            base = lookup(baseline, key)
            new = lookup(fresh, key)
            floor = base * (1.0 - tolerance)
            ok = new >= floor
            details.append(
                f"{key}: fresh {new} vs baseline {base} "
                f"(floor {floor:.2f}) {'ok' if ok else 'REGRESSED'}"
            )
            if ok:
                return []
        return details


@dataclass(frozen=True)
class BoundCheck:
    """Absolute invariant on the fresh run: ``value <= limit`` keys, or
    ``value > 0`` when ``positive`` is set."""

    file: str
    name: str
    value: str
    limit: str = ""
    positive: bool = False
    #: Multiplier on the limit for wall-clock-derived bounds, where a
    #: strict `<=` would flake on shared-runner timing noise.
    slack: float = 1.0

    def run(self, baseline: dict, fresh: dict, tolerance: float) -> List[str]:
        new = lookup(fresh, self.value)
        if self.positive:
            if new > 0:
                return []
            return [f"{self.value}: fresh {new}, expected > 0"]
        bound = lookup(fresh, self.limit) * self.slack
        if new <= bound:
            return []
        return [f"{self.value}: fresh {new} exceeds bound {self.limit}={bound}"]


CHECKS: Tuple[object, ...] = (
    RatioCheck(
        "BENCH_fleet_hotpath_quick.json",
        "batched fleet sweep: full-scan reduction",
        ("fleet_sweep.scan_reduction",),
    ),
    RatioCheck(
        "BENCH_serving_quick.json",
        "serving micro-batcher vs per-request at 8 clients",
        ("closed_loop.8.p99_speedup", "closed_loop.8.throughput_speedup"),
    ),
    RatioCheck(
        "BENCH_serving_quick.json",
        "serving micro-batcher vs per-request at 64 clients",
        ("closed_loop.64.p99_speedup", "closed_loop.64.throughput_speedup"),
    ),
    BoundCheck(
        "BENCH_serving_quick.json",
        "overload run sheds load",
        value="overload.shed_fraction",
        positive=True,
    ),
    BoundCheck(
        "BENCH_serving_quick.json",
        "overload queue depth stays bounded",
        value="overload.max_depth",
        limit="overload.queue_bound",
    ),
    RatioCheck(
        "BENCH_fleet_scale_quick.json",
        "fleet scaling: per-event throughput holds 1k -> 10k",
        ("scaling.throughput_ratio_10k_vs_1k",),
    ),
    RatioCheck(
        "BENCH_fleet_scale_quick.json",
        "lean columnar engine beats the per-actor engine",
        ("engine_comparison.speedup",),
    ),
    BoundCheck(
        "BENCH_fleet_scale_quick.json",
        "lean columnar KPIs identical to the actor engine",
        value="engine_comparison.kpis_identical",
        positive=True,
    ),
    BoundCheck(
        "BENCH_fleet_scale_quick.json",
        "cross-shard KPI merge is executor-deterministic",
        value="shard_merge.deterministic",
        positive=True,
    ),
    BoundCheck(
        "BENCH_fleet_scale_quick.json",
        "fleet curve exercises the pre-warm path",
        value="curve.10000.prewarms",
        positive=True,
    ),
    BoundCheck(
        "BENCH_observability_quick.json",
        "disabled instrumentation guard stays a no-op",
        value="noop.noop_overhead_fraction",
        limit="noop.noop_overhead_limit",
    ),
    BoundCheck(
        "BENCH_observability_quick.json",
        "windowed SLO streams reconcile with batch KPIs",
        value="slo.equivalence_ok",
        positive=True,
    ),
    BoundCheck(
        "BENCH_observability_quick.json",
        "armed monitor evaluates window boundaries",
        value="slo.slo_evaluations",
        positive=True,
    ),
    # The armed-vs-disarmed wall-clock ratio is asserted by the benchmark
    # itself on full (committed-baseline) runs only: a 2-rep quick run on
    # a shared CI runner is too noisy to gate a ~1% fraction.
    BoundCheck(
        "BENCH_observability_quick.json",
        "chaos alert fires and clears; streaming == batch",
        value="alert_roundtrip.ok",
        positive=True,
    ),
    BoundCheck(
        "BENCH_wal_quick.json",
        "WAL append: every journaled record recovered",
        value="append.all_records_recovered",
        positive=True,
    ),
    BoundCheck(
        "BENCH_wal_quick.json",
        "WAL recovery restores byte-identical engine state",
        value="recovery.identical",
        positive=True,
    ),
    BoundCheck(
        "BENCH_wal_quick.json",
        "WAL recovery is exactly-once: no workflow duplicated or lost",
        value="recovery.exactly_once_ok",
        positive=True,
    ),
    RatioCheck(
        "BENCH_wal_quick.json",
        "checkpointed restart beats full WAL replay",
        ("recovery.checkpoint_speedup",),
    ),
    # The armed journaling overhead fraction (<5% of a scenario day) is
    # asserted by the full (local) bench run only, for the same reason as
    # the SLO armed-vs-disarmed ratio above: quick-run wall clocks on a
    # shared CI runner are too noisy to gate a few-percent fraction.
    BoundCheck(
        "BENCH_serving_sharded_quick.json",
        "sharded p99 at 2 workers equal-or-better than single-process",
        value="sweep.2.closed.p99_ms",
        limit="single_closed.p99_ms",
        slack=1.25,
    ),
    RatioCheck(
        "BENCH_serving_sharded_quick.json",
        "sharded same-modality speedup at 2 workers holds",
        ("speedup_2w_vs_fresh_single",),
    ),
    BoundCheck(
        "BENCH_tuning_quick.json",
        "online tuning dominates the static sweep under archetype drift",
        value="scenarios.archetype_switch.dominates",
        positive=True,
    ),
    BoundCheck(
        "BENCH_tuning_quick.json",
        "online tuning dominates the static sweep under DST drift",
        value="scenarios.dst_shift.dominates",
        positive=True,
    ),
    RatioCheck(
        "BENCH_tuning_quick.json",
        "online QoS holds its lead over static under archetype drift",
        ("scenarios.archetype_switch.qos_ratio",),
    ),
    RatioCheck(
        "BENCH_tuning_quick.json",
        "online QoS holds its lead over static under DST drift",
        ("scenarios.dst_shift.qos_ratio",),
    ),
    BoundCheck(
        "BENCH_tuning_quick.json",
        "online idle stays within the COGS guard under DST drift",
        value="scenarios.dst_shift.online_idle_percent",
        limit="scenarios.dst_shift.idle_guard_percent",
    ),
    BoundCheck(
        "BENCH_tuning_quick.json",
        "no-op online configuration reproduces the static series",
        value="static_sanity.identical",
        positive=True,
    ),
)


@dataclass
class Outcome:
    passed: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    #: ``(check name, file, "pass"/"FAIL", one-line detail)`` per check,
    #: in declaration order -- the ``--summary-md`` table rows.
    rows: List[Tuple[str, str, str, str]] = field(default_factory=list)


def run_checks(
    baseline_dir: Path, fresh_dir: Path, tolerance: float
) -> Outcome:
    outcome = Outcome()
    docs = {}
    for check in CHECKS:
        if check.file not in docs:
            baseline_path = baseline_dir / check.file
            fresh_path = fresh_dir / check.file
            for path, role in ((baseline_path, "baseline"), (fresh_path, "fresh")):
                if not path.is_file():
                    outcome.failed.append(f"{role} missing: {path}")
            if outcome.failed:
                return outcome
            docs[check.file] = (
                json.loads(baseline_path.read_text()),
                json.loads(fresh_path.read_text()),
            )
        baseline, fresh = docs[check.file]
        try:
            failures = check.run(baseline, fresh, tolerance)
        except MissingMetricError as exc:
            # A benchmark schema drifted away from its committed baseline:
            # fail loudly with the offending key instead of a bare
            # KeyError traceback.
            failures = [str(exc.args[0])]
        if failures:
            outcome.failed.append(
                f"{check.name} [{check.file}]:\n    " + "\n    ".join(failures)
            )
            outcome.rows.append(
                (check.name, check.file, "FAIL", "; ".join(failures))
            )
        else:
            outcome.passed.append(check.name)
            outcome.rows.append((check.name, check.file, "pass", ""))
    return outcome


def summary_markdown(outcome: Outcome, tolerance: float) -> str:
    """A GitHub-flavoured markdown table for ``$GITHUB_STEP_SUMMARY``."""
    lines = [
        "## Benchmark regression checks",
        "",
        f"Tolerance: {tolerance:.0%} on ratio metrics.",
        "",
        "| Check | Results file | Status | Detail |",
        "| --- | --- | --- | --- |",
    ]
    for name, file, status, detail in outcome.rows:
        icon = ":white_check_mark:" if status == "pass" else ":x:"
        detail = detail.replace("|", "\\|").replace("\n", " ")
        lines.append(f"| {name} | `{file}` | {icon} {status} | {detail} |")
    for failure in outcome.failed:
        if not any(failure.startswith(row[0]) for row in outcome.rows):
            # Missing-file failures never became table rows.
            lines.append(f"| (setup) | | :x: FAIL | {failure} |")
    lines.append("")
    lines.append(
        f"**{len(outcome.failed)} regression(s)**"
        if outcome.failed
        else f"**All {len(outcome.passed)} checks passed.**"
    )
    return "\n".join(lines) + "\n"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        required=True,
        help="directory holding freshly-run quick benchmark JSONs",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=RESULTS_DIR,
        help="directory holding committed baselines (default: benchmarks/results)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional regression on ratio metrics (default 0.25)",
    )
    parser.add_argument(
        "--summary-md",
        type=Path,
        default=None,
        help="also append a markdown results table to this file "
        "(point it at $GITHUB_STEP_SUMMARY in CI)",
    )
    args = parser.parse_args(argv)

    outcome = run_checks(args.baseline_dir, args.fresh_dir, args.tolerance)
    if args.summary_md is not None:
        with args.summary_md.open("a", encoding="utf-8") as handle:
            handle.write(summary_markdown(outcome, args.tolerance))
    for name in outcome.passed:
        print(f"ok: {name}")
    for failure in outcome.failed:
        print(f"FAIL: {failure}")
    if outcome.failed:
        print(f"{len(outcome.failed)} benchmark regression(s)")
        return 1
    print(f"all {len(outcome.passed)} benchmark checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
