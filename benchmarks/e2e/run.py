#!/usr/bin/env python3
"""End-to-end benchmark of both hot paths: fleet simulation and prediction
serving.

One workload, the way the benchmark driver calls it::

    python3 benchmarks/e2e/run.py --workload fleet_day --seed 1 --seconds 10 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1`` (which also
writes a Chrome trace and the layer table under ``benchmarks/e2e/out/``).

The whole suite (each workload in its own fresh process, untraced then
traced), for before/after comparisons with ``compare.py``::

    python3 benchmarks/e2e/run.py --repeats 10 --out benchmarks/e2e/out/A.json
    python3 benchmarks/e2e/run.py --smoke          # 1/20 scale, < 30 s

Exit code 0 means every correctness check passed; any mismatch makes it 1.
"""

from __future__ import annotations

import common  # noqa: I001 - first: it stamps the process start time

import argparse
import json
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from names import END_TO_END_NAMES, PER_LAYER_NAMES, UNITS, WORKLOADS

SMOKE_SCALE = 0.05
SMOKE_SECONDS = 1.0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplier on every workload's fleet and block sizes",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"scale {SMOKE_SCALE}, {SMOKE_SECONDS:g} s per run (same metric names)",
    )
    parser.add_argument(
        "--self-test",
        choices=("corrupt",),
        help="corrupt one output inside the harness; the run must then fail",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="suite mode: untraced runs per workload, one seed each",
    )
    parser.add_argument("--out", help="suite mode: write the combined JSON here")
    opts = parser.parse_args(argv)
    if opts.smoke:
        opts.scale = SMOKE_SCALE
        opts.seconds = SMOKE_SECONDS
    if opts.seconds <= 0 or opts.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return opts


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


def run_workload(opts: argparse.Namespace) -> int:
    common.bootstrap_src()
    shm_before = common.shm_segments()
    if opts.workload in ("fleet_day", "region_month"):
        import sim_workloads

        runner = getattr(sim_workloads, f"run_{opts.workload}")
    else:
        import serve_workloads

        runner = getattr(serve_workloads, f"run_{opts.workload}")
    result = runner(opts)

    # Nothing the run started may outlive it: neither a shared-memory
    # segment nor a process.
    leaked = sorted(common.shm_segments() - shm_before)
    if leaked:
        result["failed"] += 1
        result["notes"].append(f"FAILED: /dev/shm segments survived: {leaked}")
    killed = common.stop_child_processes()
    if killed:
        result["failed"] += 1
        result["notes"].append(
            f"FAILED: processes survived the program's own shutdown: {killed}"
        )
    result["attempted"] += 2

    wanted = PER_LAYER_NAMES if opts.trace else END_TO_END_NAMES
    measured = result["metrics"]
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": UNITS[name]}
        for name in wanted
    }
    result["info"].update(seed=opts.seed, environment=common.environment())
    recorder = result.pop("recorder", None)
    if recorder is not None:
        write_trace_files(opts, recorder, result)

    log(f"== {opts.workload} seed={opts.seed} trace={opts.trace} "
        f"scale={opts.scale:g} seconds={opts.seconds:g}")
    for name in wanted:
        log(f"   {name:42s} {metrics[name]['value']:>16.6g} {UNITS[name]}")
    log(f"   info: {json.dumps(result['info'], sort_keys=True, default=str)}")
    for note in result["notes"]:
        log(f"   {note}")

    correct = result["failed"] == 0
    line = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    if opts.out:
        # Suite mode's child: the parent wants the run's context as well.
        with open(opts.out, "w", encoding="utf-8") as handle:
            json.dump({**line, "info": result["info"], "notes": result["notes"]},
                      handle, default=str)
    sys.stdout.flush()
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


def write_trace_files(opts, recorder, result: Dict[str, object]) -> None:
    common.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{opts.workload}.seed{opts.seed}"
    trace_path = common.OUT_DIR / f"trace.{stem}.json"
    events = recorder.write_chrome_trace(str(trace_path), opts.workload)
    table = recorder.table()
    wall = recorder.wall_s
    layers: Dict[str, float] = {}
    for row in table:
        if row["self_s"] is not None:
            layer = row["name"].split(".")[0]
            if layer == "serving":
                layer = ".".join(row["name"].split(".")[:2])
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    layers["(unattributed)"] = recorder.unattributed_s
    doc = {
        "workload": opts.workload,
        "seed": opts.seed,
        "traced_wall_s": wall,
        "layers_self_s": layers,
        "rows": table,
    }
    table_path = common.OUT_DIR / f"layers.{stem}.json"
    table_path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    result["info"]["trace_file"] = str(trace_path.relative_to(common.ROOT))
    result["info"]["trace_events"] = events
    result["info"]["layer_table_file"] = str(table_path.relative_to(common.ROOT))
    log(f"-- layer table ({opts.workload}, traced wall {wall:.3f} s; "
        f"self times sum to it)")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        log(f"   {layer:28s} {seconds:9.3f} s  {seconds / wall:6.1%}")
    log("-- busiest spans (self time)")
    for row in table[:12]:
        own = row["self_s"]
        log(f"   {row['name']:44s} calls={row['calls']:<9d} "
            f"total={row['total_s']:8.3f}s "
            + (f"self={own:8.3f}s" if own is not None else "(wait)"))


def log(text: str) -> None:
    sys.stderr.write(text + "\n")


# ---------------------------------------------------------------------------
# The whole suite: every workload in its own fresh process
# ---------------------------------------------------------------------------


def run_suite(opts: argparse.Namespace) -> int:
    """Every workload ``--repeats`` times untraced (seeds ``seed``,
    ``seed + 1``, ...; workloads interleaved so slow drift of the box is
    shared) and once traced, each run in its own fresh process."""
    common.bootstrap_src()
    common.OUT_DIR.mkdir(exist_ok=True)
    started = time.perf_counter()
    workloads: Dict[str, Dict[str, list]] = {
        name: {"untraced": [], "traced": []} for name in WORKLOADS
    }
    ok = True

    def child(workload: str, seed: int, trace: int) -> None:
        nonlocal ok
        child_out = common.OUT_DIR / f".child.{workload}.{seed}.{trace}.json"
        command = [
            sys.executable, __file__,
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(opts.seconds),
            "--scale", str(opts.scale),
            "--trace", str(trace),
            "--out", str(child_out),
        ]
        if opts.self_test:
            command += ["--self-test", opts.self_test]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if not child_out.is_file():
            log(f"{workload} seed={seed} trace={trace}: no result "
                f"(exit {proc.returncode})")
            ok = False
            return
        doc = json.loads(child_out.read_text(encoding="utf-8"))
        child_out.unlink()
        doc["seed"] = seed
        ok = ok and proc.returncode == 0 and doc["correct"]
        workloads[workload]["traced" if trace else "untraced"].append(doc)

    for seed in range(opts.seed, opts.seed + opts.repeats):
        for workload in WORKLOADS:
            child(workload, seed, 0)
    for workload in WORKLOADS:
        child(workload, opts.seed, 1)

    suite = {
        "environment": common.environment(),
        "seed": opts.seed,
        "repeats": opts.repeats,
        "scale": opts.scale,
        "seconds": opts.seconds,
        "wall_s": time.perf_counter() - started,
        "correct": ok,
        "workloads": workloads,
    }
    text = json.dumps(suite, indent=1, default=str)
    if opts.out:
        with open(opts.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(text)
    log(f"suite: {'ok' if ok else 'FAILED'} in {suite['wall_s']:.1f} s")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    opts = parse_args(argv)
    # A polite kill must unwind through the ``finally`` blocks too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if opts.workload:
            return run_workload(opts)
        return run_suite(opts)
    finally:
        # On every path out, failures included: stop whatever is still
        # running and wait for it, so no run can be served by the last one.
        common.stop_child_processes()


if __name__ == "__main__":
    sys.exit(main())
