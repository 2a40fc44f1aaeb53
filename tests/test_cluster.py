"""Tests for the capacity-constrained cluster substrate."""

import random

import pytest

from repro.cluster import Cluster, Node
from repro.errors import CapacityError


class TestNode:
    def test_capacity_validation(self):
        with pytest.raises(CapacityError):
            Node("n", 0)

    def test_place_allocate_release(self):
        node = Node("n", 2)
        node.place("a")
        node.allocate("a")
        assert node.free_slots == 1
        assert node.utilization == 0.5
        node.release("a")
        assert node.free_slots == 2

    def test_allocate_non_resident_rejected(self):
        node = Node("n", 2)
        with pytest.raises(CapacityError):
            node.allocate("ghost")

    def test_double_allocate_rejected(self):
        node = Node("n", 2)
        node.place("a")
        node.allocate("a")
        with pytest.raises(CapacityError):
            node.allocate("a")

    def test_full_node_rejects_unless_forced(self):
        node = Node("n", 1)
        node.place("a")
        node.place("b")
        node.allocate("a")
        with pytest.raises(CapacityError):
            node.allocate("b")
        node.allocate("b", force=True)
        assert node.free_slots == -1

    def test_cannot_evict_allocated(self):
        node = Node("n", 1)
        node.place("a")
        node.allocate("a")
        with pytest.raises(CapacityError):
            node.evict("a")

    def test_release_unallocated_rejected(self):
        node = Node("n", 1)
        node.place("a")
        with pytest.raises(CapacityError):
            node.release("a")


class TestCluster:
    def test_place_least_loaded(self):
        cluster = Cluster(n_nodes=3, node_capacity=4)
        for i in range(6):
            cluster.place(f"db-{i}")
        residents = [len(n.residents) for n in cluster.nodes]
        assert residents == [2, 2, 2]

    def test_double_placement_rejected(self):
        cluster = Cluster(n_nodes=2)
        cluster.place("a")
        with pytest.raises(CapacityError):
            cluster.place("a")

    def test_allocate_returns_latency(self):
        cluster = Cluster(
            n_nodes=1, resume_latency_s=45, resume_latency_jitter_s=0
        )
        cluster.place("a")
        outcome = cluster.allocate("a")
        assert outcome.latency_s == 45
        assert not outcome.moved
        assert cluster.is_allocated("a")

    def test_jitter_bounds(self):
        cluster = Cluster(n_nodes=1, resume_latency_s=45, resume_latency_jitter_s=15)
        for i in range(20):
            cluster.place(f"db-{i}")
            outcome = cluster.allocate(f"db-{i}")
            assert 45 <= outcome.latency_s <= 60

    def test_move_on_full_node(self):
        """Section 1: a resume on a full node moves the database to another
        node at a higher latency."""
        cluster = Cluster(
            n_nodes=2,
            node_capacity=1,
            resume_latency_s=45,
            resume_latency_jitter_s=0,
            move_latency_s=180,
        )
        cluster.place("a", cluster.nodes[0])
        cluster.place("b", cluster.nodes[0])  # same node, now crowded
        cluster.allocate("a")
        outcome = cluster.allocate("b")
        assert outcome.moved
        assert outcome.latency_s == 45 + 180
        assert cluster.node_of("b").node_id != "node-000"
        assert cluster.moves == 1

    def test_oversubscription_when_cluster_full(self):
        cluster = Cluster(
            n_nodes=1,
            node_capacity=1,
            resume_latency_s=45,
            resume_latency_jitter_s=0,
            move_latency_s=180,
        )
        cluster.place("a")
        cluster.place("b")
        cluster.allocate("a")
        outcome = cluster.allocate("b")
        assert outcome.latency_s == 45 + 360
        assert cluster.total_allocated == 2  # over capacity, tracked

    def test_release_frees_capacity(self):
        cluster = Cluster(n_nodes=1, node_capacity=1)
        cluster.place("a")
        cluster.allocate("a")
        cluster.release("a")
        assert not cluster.is_allocated("a")
        cluster.place("b")
        assert not cluster.allocate("b").moved

    def test_unplaced_lookup_rejected(self):
        cluster = Cluster(n_nodes=1)
        with pytest.raises(CapacityError):
            cluster.node_of("ghost")

    def test_unplaced_allocate_and_release_rejected(self):
        cluster = Cluster(n_nodes=1)
        with pytest.raises(CapacityError):
            cluster.allocate("ghost")
        with pytest.raises(CapacityError):
            cluster.release("ghost")

    def test_needs_at_least_one_node(self):
        with pytest.raises(CapacityError):
            Cluster(n_nodes=0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("jitter", [0, 1, 2, 3, 15, 16, 31, 100])
    def test_latency_draws_equal_randint(self, seed, jitter):
        """The inlined draw consumes the RNG exactly like
        ``randint(0, jitter)``, so every seeded run keeps its latencies."""
        cluster = Cluster(
            n_nodes=1, node_capacity=1, resume_latency_jitter_s=jitter, seed=seed
        )
        cluster.place("a")
        latencies = []
        for _ in range(200):
            latencies.append(cluster.allocate("a").latency_s)
            cluster.release("a")
        reference = random.Random(seed)
        assert latencies == [
            45 + (reference.randint(0, jitter) if jitter > 0 else 0)
            for _ in range(200)
        ]
