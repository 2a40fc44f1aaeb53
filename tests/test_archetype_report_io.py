"""Tests for the per-archetype KPI breakdown and trace import/export."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.archetype_report import (
    archetype_breakdown,
    archetype_of,
    format_breakdown,
)
from repro.errors import TraceError
from repro.simulation import SimulationSettings, simulate_region
from repro.types import SECONDS_PER_DAY, ActivityTrace, Session
from repro.workload import RegionPreset, generate_region_traces
from repro.workload.io import (
    export_traces,
    import_traces,
    trace_from_dict,
    trace_to_dict,
)

DAY = SECONDS_PER_DAY

# Any JSON value, and record dicts whose fields are either well-typed or
# an arbitrary JSON value (the shapes a foreign trace file can hold).
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_bound = st.integers(min_value=0, max_value=10_000) | _json
_records = st.fixed_dictionaries(
    {
        "database_id": st.text(max_size=4) | _json,
        "sessions": st.lists(
            st.lists(_bound, min_size=2, max_size=2), max_size=4
        ) | _json,
    },
    optional={"created_at": _bound},
)
_files = (
    st.binary(max_size=80)
    | st.lists(_records, max_size=3).map(
        lambda records: "\n".join(json.dumps(r) for r in records).encode()
    )
)


class TestArchetypeParsing:
    def test_standard_ids(self):
        assert archetype_of("eu1-daily-00042") == "daily"
        assert archetype_of("us2-bursty_dev-00001") == "bursty_dev"

    def test_foreign_ids(self):
        assert archetype_of("mydb") == "other"
        assert archetype_of("a-b") == "other"


class TestBreakdown:
    @pytest.fixture(scope="class")
    def result(self):
        traces = generate_region_traces(RegionPreset.EU1, 150, span_days=32, seed=4)
        settings = SimulationSettings(eval_start=30 * DAY, eval_end=31 * DAY)
        return simulate_region(traces, "proactive", settings=settings)

    def test_groups_cover_fleet(self, result):
        breakdown = archetype_breakdown(result.outcomes)
        assert sum(entry.databases for entry in breakdown) == len(result.outcomes)
        names = {entry.archetype for entry in breakdown}
        assert {"daily", "sporadic", "dormant"} <= names

    def test_predictable_archetypes_beat_unpredictable(self, result):
        """The drill-down shows *why* the fleet KPI lands where it does:
        daily patterns get pre-warmed, dormant ones stay reactive."""
        breakdown = {e.archetype: e for e in archetype_breakdown(result.outcomes)}
        assert breakdown["daily"].qos_percent > breakdown["dormant"].qos_percent

    def test_login_totals_match_fleet_kpis(self, result):
        breakdown = archetype_breakdown(result.outcomes)
        kpis = result.kpis()
        assert sum(e.logins for e in breakdown) == kpis.logins.total
        assert sum(e.logins_served for e in breakdown) == kpis.logins.with_resources

    def test_format(self, result):
        text = format_breakdown(
            archetype_breakdown(result.outcomes), title="EU1 proactive"
        )
        assert "archetype" in text and "daily" in text


class TestTraceIo:
    def test_round_trip(self, tmp_path):
        traces = generate_region_traces(RegionPreset.EU2, 25, span_days=10, seed=2)
        path = tmp_path / "fleet.jsonl"
        assert export_traces(traces, path) == 25
        loaded = import_traces(path)
        assert len(loaded) == 25
        for original, restored in zip(traces, loaded):
            assert restored.database_id == original.database_id
            assert restored.created_at == original.created_at
            assert restored.sessions == original.sessions

    def test_imported_fleet_simulates_identically(self, tmp_path):
        traces = generate_region_traces(RegionPreset.EU2, 30, span_days=32, seed=2)
        path = tmp_path / "fleet.jsonl"
        export_traces(traces, path)
        loaded = import_traces(path)
        settings = SimulationSettings(eval_start=30 * DAY, eval_end=31 * DAY)
        a = simulate_region(traces, "proactive", settings=settings).kpis()
        b = simulate_region(loaded, "proactive", settings=settings).kpis()
        assert a.to_dict() == b.to_dict()

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"database_id": "x", "sessions": [[0, 10]]}\nnot json\n')
        with pytest.raises(TraceError) as exc:
            import_traces(path)
        assert ":2:" in str(exc.value)

    def test_malformed_record_rejected(self):
        for record in (
            {"sessions": [[0, 10]]},
            {"database_id": "x", "sessions": [[10]]},
            {"database_id": "x", "created_at": "abc", "sessions": []},
            {"database_id": "x", "created_at": [1], "sessions": []},
            {"database_id": "x", "created_at": True, "sessions": []},
            {"database_id": ["x"], "sessions": []},
            {"database_id": "x", "sessions": [[1.7, 2.2]]},
        ):
            with pytest.raises(TraceError):
                trace_from_dict(record)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"database_id": "caf\xe9", "sessions": []}\n')
        with pytest.raises(TraceError, match="UTF-8"):
            import_traces(path)

    def test_overlapping_sessions_rejected(self, tmp_path):
        path = tmp_path / "overlap.jsonl"
        path.write_text(
            '{"database_id": "x", "created_at": 0, "sessions": [[0, 10], [5, 15]]}\n'
        )
        with pytest.raises(TraceError):
            import_traces(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dupe.jsonl"
        line = '{"database_id": "x", "created_at": 0, "sessions": [[0, 10]]}\n'
        path.write_text(line + line)
        with pytest.raises(TraceError):
            import_traces(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text(
            '\n{"database_id": "x", "created_at": 0, "sessions": [[0, 10]]}\n\n'
        )
        assert len(import_traces(path)) == 1

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=1, max_value=500),
            ),
            max_size=15,
        )
    )
    def test_fuzz_round_trip(self, raw):
        from repro.types import merge_sessions

        sessions = merge_sessions(Session(s, s + d) for s, d in raw)
        trace = ActivityTrace("fuzz", sessions)
        restored = trace_from_dict(trace_to_dict(trace))
        assert restored.sessions == trace.sessions
        assert restored.created_at == trace.created_at

    @settings(max_examples=100, deadline=None)
    @given(_records)
    def test_any_record_is_a_trace_or_a_trace_error(self, record):
        """A foreign record either validates or raises ``TraceError`` --
        never a raw ``TypeError`` -- and an accepted one round-trips."""
        try:
            trace = trace_from_dict(record)
        except TraceError:
            return
        out = trace_to_dict(trace)
        assert out["database_id"] == record["database_id"]
        assert out["sessions"] == record["sessions"]
        if record.get("created_at") is not None:
            assert out["created_at"] == record["created_at"]
        assert trace_to_dict(trace_from_dict(out)) == out

    @settings(max_examples=100, deadline=None)
    @given(_files)
    def test_any_file_is_traces_or_a_trace_error(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fleet.jsonl"
            path.write_bytes(raw)
            try:
                traces = import_traces(path)
            except TraceError:
                return
            export_traces(traces, path)
            again = import_traces(path)
        assert [trace_to_dict(t) for t in again] == [trace_to_dict(t) for t in traces]
