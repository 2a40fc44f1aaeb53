"""Tests for the sweep execution layer (repro.parallel).

The contract under test: any backend returns the same results in the
same order as the serial reference, degrades to serial when the pool
infrastructure fails, and reports honest per-task stats.
"""

import os

import pytest

from repro.config import ProRPConfig
from repro.parallel import (
    MultiprocessExecutor,
    SerialExecutor,
    chunked,
    merge_ordered,
    multiprocess as mp_backend,
    resolve_executor,
)
from repro.simulation import SimulationSettings
from repro.training import ParameterGrid, TrainingPipeline
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.workload import RegionPreset, generate_region_traces

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR


def _square(context, item):
    return context["base"] + item * item


def _crash_in_worker(context, item):
    """Crashes the process when run inside a pool worker, succeeds when
    run in the parent -- the shape of a worker-only failure (OOM kill,
    native-extension segfault)."""
    if mp_backend._IN_WORKER:
        os._exit(1)
    return item * 2


class TestChunked:
    def test_partition_covers_everything_in_order(self):
        items = list(range(10))
        for size in (1, 2, 3, 4, 10, 99):
            chunks = chunked(items, size)
            assert [x for chunk in chunks for x in chunk] == items
            assert all(len(chunk) <= size for chunk in chunks)

    def test_chunk_counts(self):
        assert len(chunked(list(range(10)), 3)) == 4
        assert chunked([], 3) == []

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            chunked([1, 2], 0)


class TestMergeOrdered:
    def test_restores_submission_order(self):
        indexed = [(2, "c"), (0, "a"), (1, "b")]
        assert merge_ordered(indexed, 3) == ["a", "b", "c"]

    def test_none_results_preserved(self):
        assert merge_ordered([(0, None), (1, "x")], 2) == [None, "x"]

    def test_missing_result_detected(self):
        with pytest.raises(ValueError, match="incomplete"):
            merge_ordered([(0, "a")], 2)

    def test_duplicate_result_detected(self):
        with pytest.raises(ValueError, match="two results"):
            merge_ordered([(0, "a"), (0, "b")], 1)

    def test_out_of_range_index_detected(self):
        with pytest.raises(ValueError, match="outside"):
            merge_ordered([(5, "a")], 2)


class TestSerialExecutor:
    def test_maps_in_order(self):
        executor = SerialExecutor()
        out = executor.run(_square, {"base": 10}, [1, 2, 3])
        assert out == [11, 14, 19]

    def test_stats(self):
        executor = SerialExecutor()
        executor.run(_square, {"base": 0}, [1, 2, 3])
        stats = executor.last_stats
        assert stats.backend == "serial"
        assert stats.tasks_queued == stats.tasks_completed == 3
        assert len(stats.tasks) == 3
        assert stats.fallback_reason is None


class TestMultiprocessExecutor:
    def test_matches_serial_output(self):
        executor = MultiprocessExecutor(workers=3, chunk_size=2)
        out = executor.run(_square, {"base": 10}, list(range(7)))
        assert out == [10 + i * i for i in range(7)]
        stats = executor.last_stats
        assert stats.backend == "multiprocess"
        assert stats.tasks_completed == 7
        assert stats.n_chunks == 4
        assert stats.fallback_reason is None
        # Per-task records come back sorted by submission index.
        assert [t.index for t in stats.tasks] == list(range(7))

    def test_degenerate_sweep_runs_inline(self):
        executor = MultiprocessExecutor(workers=4)
        assert executor.run(_square, {"base": 1}, [5]) == [26]
        assert executor.last_stats.workers == 1

    def test_worker_crash_falls_back_to_serial(self):
        executor = MultiprocessExecutor(workers=2, chunk_size=1)
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            out = executor.run(_crash_in_worker, None, [1, 2, 3])
        assert out == [2, 4, 6]
        stats = executor.last_stats
        assert stats.fallback_reason is not None
        assert "BrokenProcessPool" in stats.fallback_reason

    def test_unpicklable_worker_falls_back(self):
        # Under the spawn start method every payload must pickle; a nested
        # function cannot, so the pool never comes up -- the sweep must
        # still complete serially.  (Under fork the closure is inherited
        # and the pool genuinely works, so spawn is forced here.)
        def inner(context, item):
            return item + context

        executor = MultiprocessExecutor(workers=2, start_method="spawn")
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            out = executor.run(inner, 100, [1, 2])
        assert out == [101, 102]
        assert executor.last_stats.fallback_reason is not None

    def test_no_fallback_reraises(self):
        executor = MultiprocessExecutor(workers=2, chunk_size=1, fallback=False)
        with pytest.raises(Exception):
            executor.run(_crash_in_worker, None, [1, 2, 3])

    def test_worker_exceptions_propagate(self):
        # A deterministic task bug is not an infrastructure failure: it
        # must surface, not silently rerun serially (where it would fail
        # identically anyway).
        executor = MultiprocessExecutor(workers=2, chunk_size=1)
        with pytest.raises(ZeroDivisionError):
            executor.run(_divide, None, [1, 0, 2])

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            MultiprocessExecutor(workers=0)
        with pytest.raises(ValueError):
            MultiprocessExecutor(workers=2, chunk_size=0)


def _divide(context, item):
    return 10 // item


class TestResolveExecutor:
    def test_default_is_serial(self):
        assert isinstance(resolve_executor(), SerialExecutor)
        assert isinstance(resolve_executor(workers=1), SerialExecutor)
        assert isinstance(resolve_executor(workers=0), SerialExecutor)

    def test_workers_selects_multiprocess(self):
        executor = resolve_executor(workers=3)
        assert isinstance(executor, MultiprocessExecutor)
        assert executor.workers == 3

    def test_explicit_executor_wins(self):
        explicit = SerialExecutor()
        assert resolve_executor(executor=explicit, workers=8) is explicit


class TestTrainingDeterminism:
    @pytest.fixture(scope="class")
    def pipeline(self):
        traces = generate_region_traces(RegionPreset.EU1, 40, span_days=31, seed=7)
        settings = SimulationSettings(eval_start=29 * DAY, eval_end=30 * DAY)
        return TrainingPipeline(traces, settings)

    def test_serial_and_multiprocess_reports_identical(self, pipeline):
        grid = ParameterGrid(
            {"window_s": [2 * HOUR, 7 * HOUR], "confidence": [0.1, 0.5]}
        )
        serial = pipeline.run(ProRPConfig(), grid)
        parallel = pipeline.run(ProRPConfig(), grid, workers=3)
        assert serial == parallel

    def test_explicit_executor_report_identical(self, pipeline):
        grid = ParameterGrid({"confidence": [0.1, 0.4, 0.7]})
        serial = pipeline.run(ProRPConfig(), grid)
        executor = MultiprocessExecutor(workers=2, chunk_size=1)
        parallel = pipeline.run(ProRPConfig(), grid, executor=executor)
        assert serial == parallel
        assert executor.last_stats.tasks_completed == 3
