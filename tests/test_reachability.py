"""Static reachability census over ``src/repro``.

A definition (function, method, class) is *reached* when its name appears
somewhere in ``src/``, ``benchmarks/`` or ``examples/`` outside its own
body -- any identifier-shaped word counts, docstrings and strings
included, so ``getattr`` targets and re-exports are reached too.  Tests
do not count.  Every unreached definition must be on ``ALLOWLIST``: a
probe the listed tests use to observe *other* code.  Anything else that
nothing reaches is dead and should be deleted with its tests.

``docs/reachability.md`` gives the reason for each entry.  Re-run with
``PYTHONPATH=src python -m pytest tests/test_reachability.py -q``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Unreached definitions kept as test probes -> the tests that use them.
ALLOWLIST = {
    "repro.cluster.cluster.Cluster.is_allocated": (
        "tests/test_cluster.py",
        "tests/test_faults.py",
    ),
    "repro.cluster.cluster.Cluster.total_allocated": ("tests/test_cluster.py",),
    "repro.core.kpi.KpiReport.accounted_seconds": (
        "tests/core/test_kpi_resume_service.py",
        "tests/simulation/test_actor_edge_cases.py",
        "tests/simulation/test_degraded_mode.py",
        "tests/simulation/test_invariants.py",
        "tests/simulation/test_maintenance_integration.py",
        "tests/simulation/test_region.py",
        "tests/simulation/test_scenarios.py",
    ),
    "repro.core.lifecycle.Lifecycle.can_apply": (
        "tests/core/test_lifecycle_policy.py",
    ),
    "repro.core.lifecycle.legal_transitions": (
        "tests/core/test_lifecycle_policy.py",
    ),
    "repro.observability.slo.AlertLedger.is_firing": ("tests/test_slo.py",),
    "repro.observability.timeseries.CounterSeries.add_interval": (
        "tests/test_slo.py",
        "tests/test_timeseries.py",
    ),
    "repro.serving.batcher.MicroBatcher.pending_requests": (
        "tests/test_serving.py",
    ),
    "repro.storage.btree.BTree.check_invariants": (
        "tests/storage/test_btree.py",
        "tests/storage/test_history.py",
    ),
    "repro.storage.btree.BTree.height": ("tests/storage/test_btree.py",),
    "repro.storage.metadata.DatabaseRecord.has_prediction": (
        "tests/storage/test_metadata.py",
    ),
    "repro.tuning.bank.PredictorBank.selected_policy": ("tests/test_tuning.py",),
    "repro.tuning.bank.PredictorBank.selection_counts": ("tests/test_tuning.py",),
    "repro.types.ActivityTrace.active_seconds": (
        "tests/simulation/test_invariants.py",
        "tests/test_types_config.py",
    ),
}


def _definitions():
    """(qualified name, name, path, first line, last line) of every
    function, method and class under ``src/repro``, dunders excluded."""
    found = []

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}.{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append(
                        (qualname, child.name, path, child.lineno, child.end_lineno)
                    )
                walk(child, qualname, path)
            else:
                walk(child, prefix, path)

    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        module = ".".join(p for p in parts if p != "__init__")
        walk(ast.parse(path.read_text(encoding="utf-8")), module, path)
    return found


def _mentions():
    """word -> [(path, line number)] over every scanned source file."""
    mentions = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for number, line in enumerate(text.splitlines(), start=1):
                for word in WORD.findall(line):
                    mentions.setdefault(word, []).append((path, number))
    return mentions


def unreached():
    """Qualified names of definitions named nowhere outside their body."""
    mentions = _mentions()
    return {
        qualname
        for qualname, name, path, first, last in _definitions()
        if all(
            at == path and first <= number <= last
            for at, number in mentions.get(name, ())
        )
    }


def test_unreached_definitions_are_exactly_the_allowlist():
    found = unreached()
    dead = sorted(found - set(ALLOWLIST))
    reached = sorted(set(ALLOWLIST) - found)
    assert not dead, (
        f"no entry point reaches {dead}: delete them with their tests, or "
        "allowlist a test probe with its reason in docs/reachability.md"
    )
    assert not reached, (
        f"{reached} now have a caller outside tests: drop them from ALLOWLIST "
        "and docs/reachability.md"
    )


def test_each_allowlisted_probe_is_used_by_its_tests():
    for qualname, tests in ALLOWLIST.items():
        name = qualname.rsplit(".", 1)[1]
        for test in tests:
            text = (ROOT / test).read_text(encoding="utf-8")
            assert name in WORD.findall(text), f"{test} does not use {qualname}"
