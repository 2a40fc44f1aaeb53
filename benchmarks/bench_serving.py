"""Headline benchmark for the serving gateway.

Two experiments against the in-process :class:`PredictionServer`:

* **Closed-loop latency/throughput sweep** at 1, 8, and 64 concurrent
  clients, micro-batched gateway (default knobs) vs a per-request
  baseline (``max_batch_size=1``, identical otherwise).  At >= 8 clients
  the batcher must win on p99 latency *or* throughput: concurrent
  requests coalesce into one ``predict_fleet`` sweep instead of
  paying one pass each.
* **Overload**: an open-loop arrival storm far past capacity against a
  small queue bound.  The gateway must shed (typed ``Overloaded``)
  rather than queue without bound: the run asserts a positive shed
  fraction and that observed depth never exceeded the bound.

Baselines are committed under ``benchmarks/results/``: the full run
writes ``BENCH_serving.json``, ``--quick`` writes
``BENCH_serving_quick.json``.  CI re-runs the quick variant to a scratch
directory and ``benchmarks/check_regression.py`` compares the ratio
metrics against the committed quick baseline.

Run directly for a human-readable report::

    PYTHONPATH=src python benchmarks/bench_serving.py          # full
    PYTHONPATH=src python benchmarks/bench_serving.py --quick  # CI
    PYTHONPATH=src python benchmarks/bench_serving.py --quick --out /tmp/fresh.json

or through pytest (quick scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.serving import (
    PredictionServer,
    ServingSettings,
    closed_loop,
    fleet_login_arrays,
    open_loop,
)
from repro.types import SECONDS_PER_DAY

DAY = SECONDS_PER_DAY
NOW = 29 * DAY

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_serving.json"
QUICK_BASELINE_PATH = RESULTS_DIR / "BENCH_serving_quick.json"

CLIENT_COUNTS = (1, 8, 64)

#: Overload run: arrivals far past capacity against a small queue bound.
#: The batched gateway absorbs >10k rps on one event loop, so the storm
#: has to offer several times that to force the shed path.
OVERLOAD_QUEUE_DEPTH = 16
OVERLOAD_RATE_RPS = 60_000.0


def _settings(batched: bool) -> ServingSettings:
    return ServingSettings(
        max_batch_size=64 if batched else 1,
        max_linger_ms=2.0,
    )


def _closed_run(
    fleets, clients: int, requests_per_client: int, batched: bool
) -> Dict[str, object]:
    async def run():
        server = PredictionServer(settings=_settings(batched))
        await server.start()
        report = await closed_loop(
            server,
            fleets,
            NOW,
            clients=clients,
            requests_per_client=requests_per_client,
            seed=clients,
        )
        await server.stop()
        assert report.completed == report.offered and report.errors == 0
        summary = report.summary()
        summary["mean_batch_size"] = round(
            server.batcher.batched_requests / max(1, server.batcher.batches), 2
        )
        return summary

    return asyncio.run(run())


def _best_of(reps: int, fn) -> Dict[str, object]:
    """Re-run a measurement and keep the best run (max throughput) --
    the closed-loop analogue of min-of-N timing."""
    best = None
    for _ in range(reps):
        result = fn()
        if best is None or result["throughput_rps"] > best["throughput_rps"]:
            best = result
    return best


def _overload_run(fleets, n_requests: int) -> Dict[str, object]:
    async def run():
        server = PredictionServer(
            settings=ServingSettings(max_queue_depth=OVERLOAD_QUEUE_DEPTH)
        )
        await server.start()
        report = await open_loop(
            server,
            fleets,
            NOW,
            rate_rps=OVERLOAD_RATE_RPS,
            n_requests=n_requests,
            seed=1,
        )
        await server.stop()
        admission = server.admission.snapshot()
        summary = report.summary()
        summary["shed_fraction"] = round(report.shed / report.offered, 3)
        summary["max_depth"] = server.stats.max_depth
        summary["queue_bound"] = OVERLOAD_QUEUE_DEPTH
        # Server-side view of the same storm: per-reason shed decisions
        # and the depth the admission layer was holding the line at.
        summary["admission_shed_by_reason"] = dict(admission["shed"])
        summary["queue_depth"] = {
            "bound": admission["max_queue_depth"],
            "max_observed": server.stats.max_depth,
        }
        return summary

    return asyncio.run(run())


def run_bench(quick: bool = False) -> dict:
    n_databases = 40 if quick else 120
    requests_per_client = 10 if quick else 40
    reps = 2 if quick else 3
    overload_requests = 200 if quick else 1000
    fleets = fleet_login_arrays(n_databases=n_databases, now=NOW, seed=0)

    closed: Dict[str, Dict[str, object]] = {}
    for clients in CLIENT_COUNTS:
        batched = _best_of(
            reps,
            lambda c=clients: _closed_run(fleets, c, requests_per_client, True),
        )
        per_request = _best_of(
            reps,
            lambda c=clients: _closed_run(fleets, c, requests_per_client, False),
        )
        closed[str(clients)] = {
            "batched": batched,
            "per_request": per_request,
            "p99_speedup": round(
                per_request["p99_ms"] / batched["p99_ms"], 2
            ) if batched["p99_ms"] > 0 else 0.0,
            "throughput_speedup": round(
                batched["throughput_rps"] / per_request["throughput_rps"], 2
            ) if per_request["throughput_rps"] > 0 else 0.0,
        }

    return {
        "quick": quick,
        "n_databases": n_databases,
        "requests_per_client": requests_per_client,
        "closed_loop": closed,
        "overload": _overload_run(fleets, overload_requests),
    }


def _check(result: dict) -> None:
    # The headline claim: at >= 8 concurrent clients the micro-batcher
    # beats per-request dispatch on p99 latency or throughput.
    for clients in ("8", "64"):
        row = result["closed_loop"][clients]
        assert max(row["p99_speedup"], row["throughput_speedup"]) > 1.0, (
            f"micro-batching lost to per-request at {clients} clients: "
            f"p99 {row['p99_speedup']}x, throughput "
            f"{row['throughput_speedup']}x"
        )
        assert row["batched"]["mean_batch_size"] > 1.0, (
            f"no coalescing happened at {clients} clients"
        )
    overload = result["overload"]
    assert overload["shed_fraction"] > 0.0, (
        "the overload run shed nothing; admission control is inert"
    )
    assert overload["max_depth"] <= overload["queue_bound"], (
        f"queue depth {overload['max_depth']} exceeded the bound "
        f"{overload['queue_bound']}"
    )
    assert overload["completed"] + overload["shed"] == overload["offered"]


def _report(result: dict) -> str:
    lines = [
        f"Serving gateway, {result['n_databases']} databases, "
        f"{result['requests_per_client']} requests/client"
        + (" (quick)" if result["quick"] else ""),
        "  clients  mode         p50 ms  p99 ms  rps     batch",
    ]
    for clients in CLIENT_COUNTS:
        row = result["closed_loop"][str(clients)]
        for mode in ("batched", "per_request"):
            s = row[mode]
            lines.append(
                f"  {clients:>7}  {mode:<11}  {s['p50_ms']:>6}  "
                f"{s['p99_ms']:>6}  {s['throughput_rps']:>6}  "
                f"{s['mean_batch_size']:>5}"
            )
        lines.append(
            f"           -> p99 {row['p99_speedup']}x, "
            f"throughput {row['throughput_speedup']}x"
        )
    overload = result["overload"]
    lines.append(
        f"  overload: {overload['offered']} offered at "
        f"{OVERLOAD_RATE_RPS:.0f} rps, queue bound "
        f"{overload['queue_bound']}: {overload['completed']} served, "
        f"{overload['shed']} shed ({overload['shed_fraction']:.0%}), "
        f"max depth {overload['max_depth']}, p99 {overload['p99_ms']} ms"
    )
    reasons = ", ".join(
        f"{reason}={count}"
        for reason, count in sorted(overload["admission_shed_by_reason"].items())
        if count
    )
    lines.append(f"  shed by reason: {reasons or 'none'}")
    return "\n".join(lines)


def bench_serving(record_table) -> None:
    """Pytest entry: quick scale."""
    result = run_bench(quick=True)
    record_table("serving", _report(result))
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
