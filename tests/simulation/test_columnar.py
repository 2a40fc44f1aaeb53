"""Columnar-engine equivalence properties.

The struct-of-arrays engine (:mod:`repro.simulation.columnar`) and the
lean fleet path (:mod:`repro.simulation.fleet`) both claim byte-identical
observables to the per-actor reference.  These tests pin that claim over
seeded multi-region scenarios:

* actor vs columnar with the full stores: same KPI report, same
  per-database outcome ledgers, same resume-operation iterations, same
  history contents -- including under an armed fault plan (same injector
  consult/fire ledger) and a control-plane outage window.  Only the
  columnar engine batches the settle phase, so the hot-path counters are
  tied by an invariant instead of equality: every prediction the actors
  scanned, the columnar engine either scanned or took from its batch;
* lean fleet backends vs the full stores: same KPI report for both
  policies;
* serial vs worker-pool sharding: identical merged and per-shard KPIs.
"""

import dataclasses

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.prediction_cache import HOT_PATH
from repro.errors import SimulationError, TraceError
from repro.faults import FaultPlan, FaultSpec, chaos
from repro.parallel import SerialExecutor
from repro.simulation.fleet import (
    merge_kpi_reports,
    shard_bounds,
    simulate_fleet,
    simulate_fleet_sharded,
)
from repro.simulation.region import SimulationSettings, simulate_region
from repro.types import SECONDS_PER_DAY as DAY
from repro.workload.fleetgen import FleetShardSpec
from repro.workload.regions import RegionPreset, generate_region_traces

CONFIG = dataclasses.replace(DEFAULT_CONFIG, history_days=2)

ARMED_PLAN = FaultPlan.of(
    FaultSpec("predictor.exception", probability=0.25),
    FaultSpec("resume.scan.unavailable", probability=0.10),
    FaultSpec("cluster.node.crash", probability=0.02),
)


def _region_traces(seed, n=40, span_days=9):
    return generate_region_traces(
        RegionPreset.EU1, n, span_days=span_days, seed=seed
    )


def _region_settings(span_days=9, **overrides):
    return SimulationSettings(
        eval_start=(span_days - 1) * DAY, eval_end=span_days * DAY, **overrides
    )


def _run_both_engines(traces, policy, config, settings):
    results = {}
    snapshots = {}
    for engine in ("actor", "columnar"):
        HOT_PATH.reset()
        results[engine] = simulate_region(
            traces, policy, config, dataclasses.replace(settings, engine=engine)
        )
        snapshots[engine] = HOT_PATH.snapshot()
    return results, snapshots


def _assert_hot_path_invariant(snapshots):
    """Perf counters are not part of byte-identity (ROADMAP rule 3): the
    actors never batch, the columnar engine answers some of the same
    predictions from its one settle batch."""
    actor, columnar = snapshots["actor"], snapshots["columnar"]
    assert actor["full_scans"] == columnar["full_scans"] + columnar["cache_hits"]
    assert columnar["cache_hits"] <= columnar["batch_databases"]
    assert actor["batch_evals"] == 0


def _assert_ledgers_identical(results, snapshots):
    actor, columnar = results["actor"], results["columnar"]
    assert columnar.kpis().to_dict() == actor.kpis().to_dict()
    _assert_hot_path_invariant(snapshots)
    assert columnar.cluster_moves == actor.cluster_moves
    for mine, theirs in zip(columnar.outcomes, actor.outcomes):
        assert vars(mine) == vars(theirs)
    assert [
        (it.time, it.scan_failures, tuple(it.database_ids))
        for it in columnar.resume_iterations
    ] == [
        (it.time, it.scan_failures, tuple(it.database_ids))
        for it in actor.resume_iterations
    ]
    assert set(columnar.histories) == set(actor.histories)
    for database_id, store in columnar.histories.items():
        reference = actor.histories[database_id]
        assert store.login_timestamps() == reference.login_timestamps()


class TestColumnarMatchesActor:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("policy", ["proactive", "reactive"])
    def test_full_ledger_equivalence(self, seed, policy):
        traces = _region_traces(seed)
        results, snapshots = _run_both_engines(
            traces, policy, DEFAULT_CONFIG, _region_settings()
        )
        _assert_ledgers_identical(results, snapshots)

    def test_equivalence_with_maintenance_and_outage(self):
        traces = _region_traces(seed=7)
        settings = _region_settings(
            maintenance_per_week=1.0,
            prorp_outages=((8 * DAY + 3600, 8 * DAY + 5 * 3600),),
        )
        results, snapshots = _run_both_engines(
            traces, "proactive", DEFAULT_CONFIG, settings
        )
        _assert_ledgers_identical(results, snapshots)

    @pytest.mark.parametrize("chaos_seed", [1, 4])
    def test_equivalence_under_armed_fault_plan(self, chaos_seed):
        """Both engines consult and fire the same faults in the same
        order, so the injector ledger -- not just the KPIs -- matches."""
        traces = _region_traces(seed=5)
        settings = _region_settings()
        ledgers = {}
        results = {}
        for engine in ("actor", "columnar"):
            HOT_PATH.reset()
            with chaos(ARMED_PLAN, seed=chaos_seed) as injector:
                results[engine] = simulate_region(
                    traces,
                    "proactive",
                    DEFAULT_CONFIG,
                    dataclasses.replace(settings, engine=engine),
                )
                ledgers[engine] = injector.snapshot()
        assert ledgers["columnar"] == ledgers["actor"]
        assert ledgers["columnar"]["fires"], "the armed plan never fired"
        assert (
            results["columnar"].kpis().to_dict()
            == results["actor"].kpis().to_dict()
        )
        for mine, theirs in zip(
            results["columnar"].outcomes, results["actor"].outcomes
        ):
            assert vars(mine) == vars(theirs)


class TestLeanFleetMatchesFullStores:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("policy", ["proactive", "reactive"])
    def test_kpi_equivalence(self, seed, policy):
        spec = FleetShardSpec(
            n_databases=150, span_days=5, seed=seed, new_database_fraction=0.15
        )
        fleet = spec.materialize()
        settings = SimulationSettings(
            eval_start=4 * DAY,
            eval_end=5 * DAY,
            n_nodes=-(-fleet.n // 48),
            node_capacity=64,
        )
        lean = simulate_fleet(fleet, policy, CONFIG, settings)
        full = simulate_region(fleet.to_traces(), policy, CONFIG, settings)
        assert lean.kpis.to_dict() == full.kpis().to_dict()
        assert lean.n_databases == fleet.n
        assert lean.events_dispatched > 0

    def test_prewarm_path_engages(self):
        spec = FleetShardSpec(n_databases=200, span_days=4, seed=1)
        settings = SimulationSettings(
            eval_start=3 * DAY, eval_end=4 * DAY, n_nodes=5, node_capacity=64
        )
        result = simulate_fleet(spec, "proactive", CONFIG, settings)
        assert result.prewarms > 0
        assert result.kpis.workflows.proactive_resumes > 0
        assert result.resume_op_runs > 0


class TestShardedDeterminism:
    def test_serial_and_pooled_merges_identical(self):
        spec = FleetShardSpec(n_databases=600, span_days=4, seed=3)
        settings = SimulationSettings(
            eval_start=3 * DAY, eval_end=4 * DAY, n_nodes=4, node_capacity=64
        )
        serial = simulate_fleet_sharded(
            spec, "proactive", CONFIG, settings,
            n_shards=3, executor=SerialExecutor(),
        )
        pooled = simulate_fleet_sharded(
            spec, "proactive", CONFIG, settings, n_shards=3, workers=3
        )
        assert serial.kpis.to_dict() == pooled.kpis.to_dict()
        assert [s.to_dict() for s in serial.shard_kpis] == [
            s.to_dict() for s in pooled.shard_kpis
        ]
        assert serial.events_dispatched == pooled.events_dispatched
        assert serial.n_shards == 3

    def test_merge_is_fieldwise_sum_of_shards(self):
        spec = FleetShardSpec(n_databases=300, span_days=4, seed=9)
        settings = SimulationSettings(
            eval_start=3 * DAY, eval_end=4 * DAY, n_nodes=4, node_capacity=64
        )
        sharded = simulate_fleet_sharded(
            spec, "proactive", CONFIG, settings,
            n_shards=4, executor=SerialExecutor(),
        )
        merged = merge_kpi_reports(sharded.shard_kpis)
        assert merged.to_dict() == sharded.kpis.to_dict()
        assert merged.n_databases == 300

    def test_merge_rejects_mismatched_windows(self):
        spec = FleetShardSpec(n_databases=60, span_days=4, seed=0)
        base = SimulationSettings(
            eval_start=3 * DAY, eval_end=4 * DAY, n_nodes=2, node_capacity=64
        )
        other = dataclasses.replace(base, eval_start=2 * DAY)
        a = simulate_fleet(spec, "reactive", CONFIG, base).kpis
        b = simulate_fleet(spec, "reactive", CONFIG, other).kpis
        with pytest.raises(SimulationError):
            merge_kpi_reports([a, b])

    def test_shard_bounds_partition_the_fleet(self):
        bounds = shard_bounds(10, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        assert all(lo < hi for lo, hi in bounds)
        assert all(
            bounds[i][1] == bounds[i + 1][0] for i in range(len(bounds) - 1)
        )
        assert shard_bounds(2, 8) == [(0, 1), (1, 2)]


class TestFleetgenDeterminism:
    def test_materialize_is_pure(self):
        spec = FleetShardSpec(n_databases=500, span_days=5, seed=42)
        a = spec.materialize(100, 300)
        b = spec.materialize(100, 300)
        assert a.ids == b.ids
        assert (a.sess_offsets == b.sess_offsets).all()
        assert (a.starts == b.starts).all()
        assert (a.ends == b.ends).all()
        assert (a.created_at == b.created_at).all()

    def test_sessions_are_sorted_and_well_formed(self):
        fleet = FleetShardSpec(n_databases=300, span_days=9, seed=2).materialize()
        assert list(fleet.ids) == sorted(fleet.ids)
        for d in range(fleet.n):
            lo, hi = int(fleet.sess_offsets[d]), int(fleet.sess_offsets[d + 1])
            starts, ends = fleet.starts[lo:hi], fleet.ends[lo:hi]
            assert (ends > starts).all()
            assert (starts[1:] >= ends[:-1]).all(), "sessions overlap"
            if hi > lo:
                assert fleet.created_at[d] <= starts[0]

    def test_spec_validation(self):
        with pytest.raises(TraceError):
            FleetShardSpec(n_databases=0)
        with pytest.raises(TraceError):
            FleetShardSpec(n_databases=10, span_days=1)
        with pytest.raises(TraceError):
            FleetShardSpec(n_databases=10).materialize(5, 3)


class TestLeanGates:
    def _settings(self, **overrides):
        return SimulationSettings(
            eval_start=3 * DAY, eval_end=4 * DAY, n_nodes=2, node_capacity=64,
            **overrides,
        )

    def test_rejects_fault_injection(self):
        spec = FleetShardSpec(n_databases=20, span_days=4, seed=0)
        with chaos(ARMED_PLAN, seed=0):
            with pytest.raises(SimulationError, match="fault injection"):
                simulate_fleet(spec, "proactive", CONFIG, self._settings())

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"maintenance_per_week": 1.0}, "maintenance"),
            ({"collect_timelines": True}, "timelines"),
            ({"measure_prediction_latency": True}, "latency"),
            ({"use_fast_predictor": False}, "predictor"),
        ],
    )
    def test_rejects_unsupported_settings(self, overrides, match):
        spec = FleetShardSpec(n_databases=20, span_days=4, seed=0)
        with pytest.raises(SimulationError, match=match):
            simulate_fleet(
                spec, "proactive", CONFIG, self._settings(**overrides)
            )

    def test_rejects_analytic_policies(self):
        spec = FleetShardSpec(n_databases=20, span_days=4, seed=0)
        with pytest.raises(SimulationError, match="policies"):
            simulate_fleet(spec, "optimal", CONFIG, self._settings())
