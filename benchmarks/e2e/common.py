"""Shared helpers of the end-to-end benchmark: path bootstrap, statistics,
resource readings, environment record."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything a run writes (traces, layer tables, suite results) goes here;
#: the directory is listed in the root ``.gitignore``.
OUT_DIR = HERE / "out"

#: How many times a run repeats its set-up (``setup_s`` is the median).
SETUP_REPEATS = 3
#: Share of ``--seconds`` a traced run spends on untraced reference units
#: (the denominator of ``tracing.overhead_share``).
REFERENCE_SHARE = 0.3

#: ``time.perf_counter()`` when the harness process started executing
#: (``run.py`` imports this module first): the origin of ``setup_s``.
PROCESS_START = time.perf_counter()


def bootstrap_src() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``; fail
    (non-zero exit, no result line) when the program is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"e2e benchmark: {SRC / 'repro'} not found -- the benchmark "
            f"measures the program in this checkout and cannot run without it\n"
        )
        raise SystemExit(2)
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


class Checks:
    """Tally of a run's correctness checks: what the result line reports
    as ``attempted`` / ``failed``, with a note per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def median(values: Iterable[float]) -> float:
    return statistics.median(values)


# ---------------------------------------------------------------------------
# Time-budgeted repetition
# ---------------------------------------------------------------------------


def repeat_for(
    seconds: float, unit: Callable[[int], None], min_units: int = 3
) -> List[float]:
    """Run ``unit(i)`` back to back until ``seconds`` have elapsed (and at
    least ``min_units`` times); returns each unit's wall seconds.  Every
    unit does a fixed amount of work, so its counts repeat exactly and only
    the number of units depends on the machine."""
    walls: List[float] = []
    started = time.perf_counter()
    i = 0
    while i < min_units or time.perf_counter() - started < seconds:
        gc.collect()
        t0 = time.perf_counter()
        unit(i)
        walls.append(time.perf_counter() - t0)
        i += 1
    return walls


# ---------------------------------------------------------------------------
# Resources
# ---------------------------------------------------------------------------


def peak_rss_mib(children_kib: Sequence[int] = ()) -> float:
    """Peak resident set of this process plus ``children_kib``, the peaks
    of the child processes that ran beside it (read with
    :func:`process_peak_rss_kib` just before they were stopped)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(children_kib)) / 1024.0


def process_peak_rss_kib(pid: int) -> int:
    """``VmHWM`` of a live process; falls back to the largest reaped child
    (``RUSAGE_CHILDREN``) where ``/proc`` is not available."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def process_cpu_s(pid: int) -> Optional[float]:
    """utime + stime of a live process from ``/proc`` (None off Linux)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return None
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def _parent_pids() -> Dict[int, int]:
    """pid -> parent pid of every process ``/proc`` shows (zombies too)."""
    parents: Dict[int, int] = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return parents
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
            parents[int(entry)] = int(fields[1])
        except (OSError, IndexError, ValueError):
            continue  # ended while we were reading
    return parents


def descendant_pids() -> List[int]:
    """Every process started by this one, directly or not, that the process
    table still holds."""
    parents = _parent_pids()
    found: List[int] = []
    frontier = [os.getpid()]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def stop_child_processes(timeout_s: float = 20.0) -> List[int]:
    """Stop every process this one started and wait until each has ended;
    returns the pids that had to be killed (a finding: the program's own
    shutdown should have ended them).

    ``multiprocessing``'s resource tracker is the one helper that normally
    outlives ``router.stop()``: the spawn context and ``SharedMemory`` start
    it, and it only ends *after* its parent has exited -- an orphan, seen by
    whoever looks at the process table right after a run.  It is closed and
    waited for here instead."""
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    killed: List[int] = []
    for child in multiprocessing.active_children():  # also reaps the ended
        killed.append(child.pid)
        child.kill()
        child.join(timeout_s)
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_fd", None) is not None:
        stop()  # closes its pipe, then waitpid()s it
    deadline = time.monotonic() + timeout_s
    while True:
        reap_ended_children()
        remaining = descendant_pids()
        if not remaining or time.monotonic() > deadline:
            break
        for pid in remaining:
            if pid not in killed:
                killed.append(pid)
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        time.sleep(0.02)
    return killed


def reap_ended_children() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ---------------------------------------------------------------------------
# Digests and environment
# ---------------------------------------------------------------------------


def kpi_digest(report) -> str:
    """sha256 over every field of a ``KpiReport`` (all integer sums), so
    two reports agree exactly or not at all."""
    doc = dataclasses.asdict(report)
    doc["to_dict"] = report.to_dict()
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def assert_defaults() -> None:
    """The untraced pass must measure the program as shipped: process-wide
    observability and fault injection stay at their (off) defaults."""
    from repro.faults.runtime import FAULTS
    from repro.observability.runtime import OBS

    if OBS.enabled or FAULTS.enabled:
        raise RuntimeError("OBS/FAULTS must stay disabled in the harness process")
