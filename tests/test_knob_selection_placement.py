"""Tests for automated knob selection (Section 11(2)) and the
prediction-aware placement advisor (Section 11(3))."""

import pytest

from repro.cluster import Cluster
from repro.cluster.placement import PlacementAdvisor
from repro.config import ProRPConfig
from repro.errors import CapacityError, ConfigError
from repro.simulation import SimulationSettings
from repro.training import TrainingPipeline
from repro.training.knob_selection import rank_knobs
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_MINUTE
from repro.workload import RegionPreset, generate_region_traces

DAY = SECONDS_PER_DAY
HOUR = SECONDS_PER_HOUR
MIN = SECONDS_PER_MINUTE


class TestKnobSelection:
    @pytest.fixture(scope="class")
    def pipeline(self):
        traces = generate_region_traces(RegionPreset.EU1, 60, span_days=31, seed=6)
        settings = SimulationSettings(eval_start=29 * DAY, eval_end=30 * DAY)
        return TrainingPipeline(traces, settings)

    def test_confidence_more_impactful_than_prewarm(self, pipeline):
        """The paper manually picked window/confidence as the impactful
        knobs; the sensitivity analysis agrees that confidence dominates
        the pre-warm interval."""
        impacts = rank_knobs(
            pipeline,
            ProRPConfig(),
            {
                "confidence": [0.1, 0.8],
                "prewarm_s": [1 * MIN, 10 * MIN],
            },
        )
        assert impacts[0].knob == "confidence"
        assert impacts[0].impact > impacts[1].impact

    def test_invalid_value_rejected_up_front(self, pipeline):
        """An invalid probe value is a configuration error, not a silent
        shrink of the sweep (shared validation with the online tuner)."""
        with pytest.raises(ConfigError, match="invalid candidate"):
            rank_knobs(pipeline, ProRPConfig(), {"confidence": [0.1, -1.0]})

    def test_unknown_knob_rejected(self, pipeline):
        with pytest.raises(ConfigError, match="unknown knob"):
            rank_knobs(pipeline, ProRPConfig(), {"confidnce": [0.1]})

    def test_all_invalid_rejected(self, pipeline):
        with pytest.raises(ConfigError):
            rank_knobs(pipeline, ProRPConfig(), {"confidence": [-1.0]})


class TestPlacementAdvisor:
    def _advisor(self, n_nodes=3):
        cluster = Cluster(n_nodes=n_nodes, node_capacity=16)
        return cluster, PlacementAdvisor(cluster)

    def test_spreads_correlated_predictions(self):
        """Databases predicted to resume at the same minute land on
        different nodes (flattening the Figure 11 batch per node)."""
        cluster, advisor = self._advisor(n_nodes=3)
        pred_start = 9 * HOUR
        nodes = [advisor.place(f"db-{i}", pred_start) for i in range(3)]
        assert len({node.node_id for node in nodes}) == 3

    def test_anti_correlated_predictions_can_share(self):
        cluster, advisor = self._advisor(n_nodes=2)
        advisor.place("morning", 9 * HOUR)
        node = advisor.suggest_node(21 * HOUR)
        # A 21:00 database adds no pressure anywhere: ties break by
        # resident count, so it avoids the occupied node -- but its own
        # 09:00-pressure contribution is zero on both.
        assert advisor.node_pressure(node.node_id, 21 * HOUR) == 0

    def test_pressure_window(self):
        cluster, advisor = self._advisor()
        advisor.place("a", 9 * HOUR)
        node = cluster.node_of("a")
        assert advisor.node_pressure(node.node_id, 9 * HOUR) == 1
        assert advisor.node_pressure(node.node_id, 9 * HOUR + 5 * MIN) == 1
        assert advisor.node_pressure(node.node_id, 15 * HOUR) == 0

    def test_no_prediction_contributes_nothing(self):
        cluster, advisor = self._advisor()
        advisor.place("a", 0)  # sentinel: no prediction
        for node in cluster.nodes:
            assert advisor.peak_pressure(node.node_id) == 0

    def test_clear_prediction(self):
        cluster, advisor = self._advisor()
        node = advisor.place("a", 9 * HOUR)
        advisor.clear_prediction("a")
        assert advisor.node_pressure(node.node_id, 9 * HOUR) == 0

    def test_record_updates_replace(self):
        cluster, advisor = self._advisor()
        node = advisor.place("a", 9 * HOUR)
        advisor.record_prediction("a", node.node_id, 14 * HOUR)
        assert advisor.node_pressure(node.node_id, 9 * HOUR) == 0
        assert advisor.node_pressure(node.node_id, 14 * HOUR) == 1

    def test_peak_pressure(self):
        cluster, advisor = self._advisor(n_nodes=1)
        for i in range(4):
            advisor.place(f"db-{i}", 9 * HOUR + i)  # same bucket
        assert advisor.peak_pressure("node-000") == 4

    def test_bad_bucket_rejected(self):
        cluster = Cluster(n_nodes=1)
        with pytest.raises(CapacityError):
            PlacementAdvisor(cluster, bucket_s=0)
