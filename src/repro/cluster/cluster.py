"""Cluster-level placement and allocation with move-on-full behaviour."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.node import Node
from repro.errors import CapacityError
from repro.faults.runtime import FAULTS

#: Fault point consulted once per allocation: the database's home node
#: crashes mid-resume, forcing a failover move to another node (or a slow
#: in-place recovery when the cluster has no room).
NODE_CRASH_FAULT_POINT = "cluster.node.crash"


@dataclass(frozen=True)
class AllocationOutcome:
    """Result of an allocation request: how long the workflow takes and
    whether the database had to be moved to another node first."""

    latency_s: int
    moved: bool
    node_id: str


class Cluster:
    """A set of nodes plus the tenant placement logic.

    Latencies model the "reaction time between demand signal and effective
    change in resource allocation" of Section 2.2: a normal resume takes
    ``resume_latency_s`` (+/- jitter); a resume that must first move the
    database to a node with capacity takes ``move_latency_s`` in addition.
    Pre-warmed (proactive) allocations go through the same machinery -- the
    whole point of pre-warming is paying this latency *before* the customer
    arrives.
    """

    def __init__(
        self,
        n_nodes: int = 8,
        node_capacity: int = 64,
        resume_latency_s: int = 45,
        resume_latency_jitter_s: int = 15,
        move_latency_s: int = 180,
        seed: int = 0,
    ):
        if n_nodes <= 0:
            raise CapacityError("a cluster needs at least one node")
        self.nodes: List[Node] = [
            Node(f"node-{i:03d}", node_capacity) for i in range(n_nodes)
        ]
        self._by_database: Dict[str, Node] = {}
        self._resume_latency_s = resume_latency_s
        self._jitter_s = resume_latency_jitter_s
        self._jitter_bits = (resume_latency_jitter_s + 1).bit_length()
        self._move_latency_s = move_latency_s
        self._rng = random.Random(seed)
        self.moves = 0

    @property
    def total_allocated(self) -> int:
        return sum(len(node.allocated) for node in self.nodes)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def place(self, database_id: str, node: Optional[Node] = None) -> Node:
        """Place a database on a node (least-loaded by default)."""
        if database_id in self._by_database:
            raise CapacityError(f"{database_id!r} is already placed")
        if node is None:
            node = min(self.nodes, key=lambda n: len(n.residents))
        node.place(database_id)
        self._by_database[database_id] = node
        return node

    def place_fleet(self, database_ids: Sequence[str]) -> List[str]:
        """Place many databases on an **empty** cluster in one pass.

        Placing sequentially from an empty cluster, :meth:`place` is
        provably round-robin: after ``m`` placements the resident counts
        are balanced with the first ``m % n`` nodes holding one extra, so
        ``min`` (which breaks ties by list order) always picks
        ``nodes[m % n]``.  This method exploits that to skip the
        ``min``-over-nodes scan per database -- O(1) instead of O(n) each,
        which is what makes million-database regions placeable -- while
        producing byte-identical placements.  Returns the node id chosen
        for each database, in input order.
        """
        if self._by_database:
            raise CapacityError(
                "place_fleet requires an empty cluster (its round-robin "
                "shortcut is only equivalent to sequential place() from "
                "an empty state)"
            )
        n = len(self.nodes)
        node_ids: List[str] = []
        for i, database_id in enumerate(database_ids):
            node = self.nodes[i % n]
            node.place(database_id)
            self._by_database[database_id] = node
            node_ids.append(node.node_id)
        return node_ids

    def node_of(self, database_id: str) -> Node:
        try:
            return self._by_database[database_id]
        except KeyError:
            raise CapacityError(f"{database_id!r} is not placed") from None

    # ------------------------------------------------------------------
    # Allocation / release
    # ------------------------------------------------------------------

    def allocate(self, database_id: str) -> AllocationOutcome:
        """Resume compute for a database, moving it if its node is full.

        When the ``cluster.node.crash`` fault fires, the home node dies
        mid-resume: the database fails over to another node (paying the
        crash-detection + move latency), or recovers in place at the
        over-subscription latency when no other node has room.
        """
        # One dict lookup; node_of only raises for an unplaced database.
        node = self._by_database.get(database_id) or self.node_of(database_id)
        moved = False
        if FAULTS.enabled and FAULTS.injector.should_fire(NODE_CRASH_FAULT_POINT):
            target = self._least_loaded_with_room(exclude=node)
            if target is None:
                # Nowhere to fail over: wait out the node recovery and
                # resume in place at a steep latency.
                node.allocate(database_id, force=True)
                latency = self._base_latency() + 2 * self._move_latency_s
                return AllocationOutcome(latency, moved=False, node_id=node.node_id)
            node.evict(database_id)
            target.place(database_id)
            self._by_database[database_id] = target
            target.allocate(database_id)
            self.moves += 1
            latency = self._base_latency() + 2 * self._move_latency_s
            return AllocationOutcome(latency, moved=True, node_id=target.node_id)
        if len(node.allocated) >= node.capacity:
            target = self._least_loaded_with_room()
            if target is None:
                # The whole cluster is at capacity: over-subscribe the home
                # node at a steep latency (queuing behind reclamations).
                node.allocate(database_id, force=True)
                latency = self._base_latency() + 2 * self._move_latency_s
                return AllocationOutcome(latency, moved=False, node_id=node.node_id)
            node.evict(database_id)
            target.place(database_id)
            self._by_database[database_id] = target
            node = target
            moved = True
            self.moves += 1
        node.allocate(database_id)
        latency = self._base_latency() + (self._move_latency_s if moved else 0)
        return AllocationOutcome(latency, moved=moved, node_id=node.node_id)

    def release(self, database_id: str) -> None:
        """Reclaim compute (physical pause)."""
        node = self._by_database.get(database_id) or self.node_of(database_id)
        node.release(database_id)

    def is_allocated(self, database_id: str) -> bool:
        node = self._by_database.get(database_id)
        return node is not None and database_id in node.allocated

    def _least_loaded_with_room(self, exclude: Optional[Node] = None) -> Optional[Node]:
        candidates = [
            node
            for node in self.nodes
            if node.free_slots > 0 and node is not exclude
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda n: n.utilization)

    def _base_latency(self) -> int:
        """``resume_latency_s + randint(0, jitter)``: the same rejection
        loop over ``getrandbits``, so the same draws, minus randint's calls."""
        if self._jitter_s <= 0:
            return self._resume_latency_s
        n = self._jitter_s + 1
        draw = self._rng.getrandbits(self._jitter_bits)
        while draw >= n:
            draw = self._rng.getrandbits(self._jitter_bits)
        return self._resume_latency_s + draw
