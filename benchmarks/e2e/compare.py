#!/usr/bin/env python3
"""Compare two suite results (``run.py --repeats N --out X.json``).

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A.json          # spreads of one set

One row per (workload, end-to-end metric): both medians, the ratio B/A with
its base, how much worse B is in the metric's own direction, the bound from
``BENCHMARK.json`` and a verdict:

* ``ok``          B's median is not worse than A's by more than the bound;
* ``worse``       it is;
* ``unresolved``  the run-to-run spread of either set (inter-quartile
                  distance over the median) is wider than the bound, so the
                  runs cannot tell -- never read this as "unchanged".

Counts that must repeat exactly (simulated statistics, sent requests) are
listed when they differ between the two sets.  Exit code 1 when any row is
``worse`` or any exact count differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: ``info`` fields that are pure functions of (commit, workload, seed).
EXACT_INFO = (
    "events_per_pass",
    "prewarms_per_pass",
    "predict_calls_per_pass",
    "kpi_digest",
    "block_requests",
    "databases",
)


def load_suite(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def metric_values(suite, workload: str, metric: str) -> List[float]:
    runs = suite["workloads"][workload]["untraced"]
    return [run["metrics"][metric]["value"] for run in runs]


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative
    when it improved)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (a - b) / abs(a) if better == "higher" else (b - a) / abs(a)


def rows(
    a, b: Optional[dict]
) -> List[Tuple[str, str, float, float, float, float, float, float, str]]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    out = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = metric_values(a, workload, name)
            vb = metric_values(b, workload, name) if b is not None else va
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            worse = worsening(ma, mb, metric["better"])
            # setup_s is exempt from the spread rule (it is bounded on the
            # medians only), exactly as the benchmark contract has it.
            noisy = name != "setup_s" and max(sa, sb) > bound
            verdict = "unresolved" if noisy else ("worse" if worse > bound else "ok")
            out.append((workload, name, ma, mb, sa, sb, worse, bound, verdict))
    return out


def exact_differences(a, b) -> List[str]:
    """Seed-determined counts that differ between two sets of one commit."""
    diffs = []
    for workload, entry in a["workloads"].items():
        by_seed = {run["seed"]: run for run in b["workloads"][workload]["untraced"]}
        for run in entry["untraced"]:
            other = by_seed.get(run["seed"])
            if other is None:
                continue
            for key in EXACT_INFO:
                if run["info"].get(key) != other["info"].get(key):
                    diffs.append(
                        f"{workload} seed {run['seed']}: {key} "
                        f"{run['info'].get(key)!r} != {other['info'].get(key)!r}"
                    )
            sent_a = {p: c["sent"] for p, c in run["info"].get("phases", {}).items()}
            sent_b = {p: c["sent"] for p, c in other["info"].get("phases", {}).items()}
            # Closed-loop phases send whole blocks for a fixed time, so only
            # their block size is fixed; the open-loop phase sends a count.
            if sent_a.get("steady") != sent_b.get("steady"):
                diffs.append(f"{workload} seed {run['seed']}: steady sent differs")
    return diffs


def main(argv: List[str]) -> int:
    if len(argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    a = load_suite(argv[1])
    b = load_suite(argv[2]) if len(argv) == 3 else None
    table = rows(a, b)
    head = (
        f"{'workload':20s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
        f"{'B/A':>7s} {'worse by':>9s} {'bound':>6s} {'spread A':>9s} "
        f"{'spread B':>9s}  verdict"
    )
    print(head)
    print("-" * len(head))
    for workload, name, ma, mb, sa, sb, worse, bound, verdict in table:
        ratio = mb / ma if ma else float("nan")
        print(
            f"{workload:20s} {name:18s} {ma:12.5g} {mb:12.5g} {ratio:7.3f} "
            f"{worse:+9.3f} {bound:6.2f} {sa:9.3f} {sb:9.3f}  {verdict}"
        )
    failed = any(row[-1] == "worse" for row in table)
    if b is not None:
        diffs = exact_differences(a, b)
        for diff in diffs:
            print("EXACT COUNT DIFFERS:", diff)
        if not diffs:
            print("exact counts (simulated statistics, sent requests): identical")
        failed = failed or bool(diffs)
    unresolved = sum(1 for row in table if row[-1] == "unresolved")
    print(
        f"{len(table)} rows: {sum(1 for r in table if r[-1] == 'ok')} ok, "
        f"{sum(1 for r in table if r[-1] == 'worse')} worse, {unresolved} unresolved"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
