"""Fleet generation: draw databases from a weighted archetype mixture."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.errors import TraceError
from repro.types import SECONDS_PER_DAY, ActivityTrace
from repro.workload.archetypes import Archetype

DAY = SECONDS_PER_DAY

#: A factory gets the per-database RNG so parameters vary across databases
#: (the paper's challenge: resource usage patterns vary per database).
ArchetypeFactory = Callable[[random.Random], Archetype]


@dataclass(frozen=True)
class FleetSpec:
    """Weighted mixture of archetype factories plus fleet-level knobs."""

    mixture: Tuple[Tuple[str, float, ArchetypeFactory], ...]
    #: Fraction of databases created *during* the span (new databases whose
    #: history is too short to predict -- Section 4 / Figure 12).
    new_database_fraction: float = 0.05
    #: Global time-zone offset in hours (regions live in different zones).
    timezone_offset_h: float = 0.0

    def __post_init__(self) -> None:
        if not self.mixture:
            raise TraceError("a fleet spec needs at least one archetype")
        total = sum(weight for _, weight, __ in self.mixture)
        if total <= 0:
            raise TraceError("archetype weights must sum to a positive value")
        if not 0 <= self.new_database_fraction < 1:
            raise TraceError("new_database_fraction must be in [0, 1)")

    def pick(self, rng: random.Random) -> Tuple[str, Archetype]:
        total = sum(weight for _, weight, __ in self.mixture)
        roll = rng.uniform(0, total)
        acc = 0.0
        for name, weight, factory in self.mixture:
            acc += weight
            if roll <= acc:
                return name, factory(rng)
        name, _, factory = self.mixture[-1]
        return name, factory(rng)


def generate_fleet(
    spec: FleetSpec,
    n_databases: int,
    span_days: int,
    seed: object = 0,
    id_prefix: str = "db",
) -> List[ActivityTrace]:
    """Generate ``n_databases`` traces over ``span_days`` days.

    Each database gets an independent RNG derived from ``seed`` so fleets
    are reproducible and insensitive to generation order.  "New" databases
    are created inside the final third of the span, which leaves them less
    than the default 28-day history at evaluation time.
    """
    if n_databases <= 0:
        raise TraceError("n_databases must be positive")
    if span_days <= 0:
        raise TraceError("span_days must be positive")
    span = span_days * DAY
    traces: List[ActivityTrace] = []
    for i in range(n_databases):
        rng = random.Random(f"{seed}:{id_prefix}:{i}")
        name, archetype = spec.pick(rng)
        created_at = 0
        if rng.random() < spec.new_database_fraction:
            created_at = int(rng.uniform(span * 2 / 3, span * 0.95))
        sessions = archetype.generate(created_at, span, rng)
        database_id = f"{id_prefix}-{name}-{i:05d}"
        traces.append(
            ActivityTrace(
                database_id,
                sessions,
                created_at=created_at if sessions else created_at,
            )
        )
    return traces
