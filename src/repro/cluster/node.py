"""One physical node hosting serverless databases."""

from __future__ import annotations

from typing import Set

from repro.errors import CapacityError


class Node:
    """A node with a fixed number of resume slots.

    ``residents`` are databases placed on the node (their files live here);
    ``allocated`` are residents whose compute is currently resumed.  Only
    allocations consume capacity -- a physically paused database occupies no
    compute slot, which is the entire point of pausing (Section 2.2).
    """

    def __init__(self, node_id: str, capacity: int):
        if capacity <= 0:
            raise CapacityError(f"node capacity must be positive, got {capacity}")
        self.node_id = node_id
        self.capacity = capacity
        self.residents: Set[str] = set()
        self.allocated: Set[str] = set()

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.allocated)

    @property
    def utilization(self) -> float:
        return len(self.allocated) / self.capacity

    def place(self, database_id: str) -> None:
        self.residents.add(database_id)

    def evict(self, database_id: str) -> None:
        if database_id in self.allocated:
            raise CapacityError(
                f"cannot move {database_id!r} off {self.node_id!r} while allocated"
            )
        self.residents.discard(database_id)

    def allocate(self, database_id: str, force: bool = False) -> None:
        """Take a resume slot.  ``force`` permits exceeding capacity, used
        only when the whole cluster is full (over-subscription under
        pressure, cf. the overbooking literature the paper cites)."""
        if database_id not in self.residents:
            raise CapacityError(
                f"{database_id!r} is not resident on node {self.node_id!r}"
            )
        if database_id in self.allocated:
            raise CapacityError(f"{database_id!r} is already allocated")
        if not force and len(self.allocated) >= self.capacity:
            raise CapacityError(f"node {self.node_id!r} is full")
        self.allocated.add(database_id)

    def release(self, database_id: str) -> None:
        if database_id not in self.allocated:
            raise CapacityError(
                f"{database_id!r} is not allocated on node {self.node_id!r}"
            )
        self.allocated.discard(database_id)

    def __repr__(self) -> str:
        return (
            f"Node({self.node_id!r}, {len(self.allocated)}/{self.capacity} "
            f"allocated, {len(self.residents)} residents)"
        )
