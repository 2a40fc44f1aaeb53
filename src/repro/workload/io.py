"""Trace import/export.

Downstream users with real telemetry can replay their own fleets: a trace
file is JSON Lines, one database per line, with epoch-second sessions --
the same (timestamp, event) information the paper's activity tracker
stores.  Exports round-trip losslessly.

Line schema::

    {"database_id": "...", "created_at": 0,
     "sessions": [[start, end], ...]}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List

from repro.errors import TraceError
from repro.types import ActivityTrace, Session


def trace_to_dict(trace: ActivityTrace) -> dict:
    return {
        "database_id": trace.database_id,
        "created_at": trace.created_at,
        "sessions": [[s.start, s.end] for s in trace.sessions],
    }


def _integer(value: object, field: str) -> int:
    # JSON has one number type: 1.7 and true must not pass as 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise TraceError(
            f"malformed trace record: {field} must be an integer, got {value!r}"
        )
    return value


def trace_from_dict(data: dict) -> ActivityTrace:
    """Validate one record; anything malformed raises :class:`TraceError`."""
    if not isinstance(data, dict):
        raise TraceError(f"malformed trace record: not an object: {data!r}")
    database_id = data.get("database_id")
    if not isinstance(database_id, str):
        raise TraceError(
            f"malformed trace record: database_id must be a string, "
            f"got {database_id!r}"
        )
    pairs = data.get("sessions")
    if not isinstance(pairs, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in pairs
    ):
        raise TraceError(
            f"malformed trace record: sessions must be a list of "
            f"[start, end] pairs, got {pairs!r}"
        )
    sessions = [
        Session(_integer(a, "session start"), _integer(b, "session end"))
        for a, b in pairs
    ]
    created_at = data.get("created_at")
    if created_at is not None:
        _integer(created_at, "created_at")
    return ActivityTrace(database_id, sessions, created_at=created_at)


def export_traces(traces: Iterable[ActivityTrace], path: Path) -> int:
    """Write traces as JSONL; returns the number written."""
    path = Path(path)
    n = 0
    with path.open("w", encoding="utf-8") as handle:
        for trace in traces:
            handle.write(json.dumps(trace_to_dict(trace), separators=(",", ":")))
            handle.write("\n")
            n += 1
    return n


def import_traces(path: Path) -> List[ActivityTrace]:
    """Read a JSONL trace file; validates every record."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: not UTF-8 text: {exc}") from exc
    traces: List[ActivityTrace] = []
    for line_number, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise TraceError(f"{path}:{line_number}: invalid JSON: {exc}") from exc
        traces.append(trace_from_dict(data))
    seen = set()
    for trace in traces:
        if trace.database_id in seen:
            raise TraceError(
                f"duplicate database_id {trace.database_id!r} in {path}"
            )
        seen.add(trace.database_id)
    return traces
