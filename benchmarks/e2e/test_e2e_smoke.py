"""Smoke test of the end-to-end benchmark (not collected by tier-1:
``testpaths = tests``).  Run it on its own::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

It checks ``BENCHMARK.json`` against the benchmark contract's limits and
against ``names.py``, then runs the whole suite at 1/20 scale and checks
that every workload reports exactly the declared metric names, passes its
correctness gate, and that a deliberately corrupted answer fails it.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_meets_the_contract():
    spec = _spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"][-1] == "benchmarks/e2e/run.py"
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME_RE.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT_RE.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    # The driver makes 4 + 22 x workloads runs inside 3420 s.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 12) <= 3420


def test_benchmark_json_matches_names_py():
    sys.path.insert(0, str(HERE))
    try:
        import names
    finally:
        sys.path.remove(str(HERE))
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(names.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == names.END_TO_END_NAMES
    assert [m["name"] for m in spec["per_layer"]] == names.PER_LAYER_NAMES
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert names.UNITS[metric["name"]] == metric["unit"]


def test_smoke_suite_reports_every_declared_metric(tmp_path):
    spec = _spec()
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--out", str(out)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    suite = json.loads(out.read_text(encoding="utf-8"))
    assert suite["correct"] and suite["wall_s"] < 60
    assert list(suite["workloads"]) == [w["name"] for w in spec["workloads"]]
    for workload, entry in suite["workloads"].items():
        for mode, declared in (("untraced", "end_to_end"), ("traced", "per_layer")):
            (run,) = entry[mode]
            assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
            assert list(run["metrics"]) == [m["name"] for m in spec[declared]]
            units = {m["name"]: m["unit"] for m in spec[declared]}
            for name, value in run["metrics"].items():
                assert value["unit"] == units[name]
                assert isinstance(value["value"], float)
        for name, value in entry["untraced"][0]["metrics"].items():
            assert value["value"] > 0, f"{workload}.{name} is not positive"


def test_a_corrupted_answer_fails_the_run():
    proc = subprocess.run(
        [
            sys.executable, str(RUN),
            "--workload", "serve_tcp_pair", "--smoke", "--self-test", "corrupt",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=170,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode != 0
    assert line["correct"] is False and line["failed"] >= 1
