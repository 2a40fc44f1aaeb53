"""Fault plans: the declarative half of the fault-injection engine.

A :class:`FaultPlan` names the fault points that may fire during a run and
how each behaves: the per-consultation probability, an optional sim-time
schedule (only fire inside these windows), an optional cap on total fires,
and an optional latency payload for points that slow an operation down
instead of failing it.

Plans are plain JSON documents so chaos experiments can be described in a
file, checked into a repo, and replayed bit-for-bit::

    {
      "seed_note": "anything non-schema is ignored",
      "points": [
        {"point": "predictor.exception", "probability": 0.2},
        {"point": "resume.scan.unavailable", "probability": 0.1,
         "windows": [[86400, 172800]]},
        {"point": "predictor.latency", "probability": 0.5,
         "latency_s": 0.25, "max_fires": 100}
      ]
    }

See ``docs/resilience.md`` for the catalog of fault points the codebase
consults; :data:`FAULT_POINTS` names them, and a plan document naming any
other point is refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import FaultPlanError

#: Every fault point some component consults (each module's ``*_POINT``).
FAULT_POINTS = (
    "predictor.exception",
    "resume.scan.unavailable",
    "cluster.node.crash",
    "predictor.latency",
    "sql.execute",
    "workflow.stuck",
    "workflow.crash",
    "controlplane.wal.crash",
    "controlplane.wal.torn",
    "controlplane.wal.corrupt",
    "serving.queue_full",
    "serving.handler",
)


@dataclass(frozen=True)
class FaultSpec:
    """Behaviour of one named fault point.

    ``probability`` is evaluated once per consultation of the point; an
    empty ``windows`` tuple means the point is armed for the whole run;
    ``max_fires`` caps how often the point fires (None = unlimited);
    ``latency_s`` is the payload for latency-spike points (how much
    simulated/recorded delay a fire adds).
    """

    point: str
    probability: float = 1.0
    windows: Tuple[Tuple[int, int], ...] = ()
    max_fires: Optional[int] = None
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.point:
            raise FaultPlanError("a fault spec needs a non-empty point name")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"fault point {self.point!r}: probability {self.probability} "
                "outside [0, 1]"
            )
        if self.max_fires is not None and self.max_fires < 0:
            raise FaultPlanError(
                f"fault point {self.point!r}: max_fires must be non-negative"
            )
        if self.latency_s < 0:
            raise FaultPlanError(
                f"fault point {self.point!r}: latency_s must be non-negative"
            )
        normalized = []
        for window in self.windows:
            try:
                start, end = window
            except (TypeError, ValueError):
                raise FaultPlanError(
                    f"fault point {self.point!r}: window {window!r} is not a "
                    "(start, end) pair"
                ) from None
            if end <= start:
                raise FaultPlanError(
                    f"fault point {self.point!r}: window {window!r} must have "
                    "end > start"
                )
            normalized.append((int(start), int(end)))
        object.__setattr__(self, "windows", tuple(normalized))

    def active(self, now: Optional[int]) -> bool:
        """Whether the point's schedule admits firing at sim-time ``now``.

        Points with no windows are always active; a consultation without a
        timestamp (``now is None``) ignores the schedule.
        """
        if not self.windows or now is None:
            return True
        return any(start <= now < end for start, end in self.windows)

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "point": self.point,
            "probability": self.probability,
        }
        if self.windows:
            doc["windows"] = [list(w) for w in self.windows]
        if self.max_fires is not None:
            doc["max_fires"] = self.max_fires
        if self.latency_s:
            doc["latency_s"] = self.latency_s
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "FaultSpec":
        if not isinstance(doc, dict) or "point" not in doc:
            raise FaultPlanError(f"fault spec {doc!r} needs a 'point' field")
        known = {"point", "probability", "windows", "max_fires", "latency_s"}
        unknown = set(doc) - known
        if unknown:
            raise FaultPlanError(
                f"fault spec for {doc['point']!r} has unknown fields {sorted(unknown)}"
            )
        if doc["point"] not in FAULT_POINTS:
            # Armed, a misspelled point would silently never fire.
            raise FaultPlanError(
                f"unknown fault point {doc['point']!r}: not in FAULT_POINTS"
            )
        try:
            return cls(
                point=str(doc["point"]),
                probability=float(doc.get("probability", 1.0)),
                windows=tuple(tuple(w) for w in doc.get("windows", ())),
                max_fires=doc.get("max_fires"),
                latency_s=float(doc.get("latency_s", 0.0)),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            # A field of the wrong type (a number for `windows`, text for
            # `probability` or `max_fires`) is a malformed plan too.
            raise FaultPlanError(
                f"fault spec for {doc['point']!r} is malformed: {exc}"
            ) from None


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of fault specs, keyed by point name."""

    specs: Dict[str, FaultSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, spec in self.specs.items():
            if name != spec.point:
                raise FaultPlanError(
                    f"plan key {name!r} does not match spec point {spec.point!r}"
                )

    # -- construction ---------------------------------------------------

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        plan: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.point in plan:
                raise FaultPlanError(f"duplicate fault point {spec.point!r}")
            plan[spec.point] = spec
        return cls(plan)

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls({})

    @classmethod
    def uniform(
        cls,
        points: Iterable[str],
        probability: float,
        latency_s: float = 0.0,
        windows: Sequence[Tuple[int, int]] = (),
    ) -> "FaultPlan":
        """One spec per point, all at the same rate -- the shape the chaos
        fault-rate sweep uses."""
        return cls.of(
            *(
                FaultSpec(
                    point=point,
                    probability=probability,
                    latency_s=latency_s,
                    windows=tuple(windows),
                )
                for point in points
            )
        )

    # -- mapping surface ------------------------------------------------

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[str]:
        return iter(self.specs)

    def __contains__(self, point: str) -> bool:
        return point in self.specs

    def get(self, point: str) -> Optional[FaultSpec]:
        return self.specs.get(point)

    def points(self) -> List[str]:
        return list(self.specs)

    # -- JSON round trip ------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"points": [spec.to_dict() for spec in self.specs.values()]}

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise FaultPlanError(f"fault plan document must be an object, got {doc!r}")
        entries = doc.get("points", [])
        if not isinstance(entries, list):
            raise FaultPlanError("'points' must be a list of fault specs")
        return cls.of(*(FaultSpec.from_dict(entry) for entry in entries))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        try:
            document = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise FaultPlanError(f"cannot load fault plan from {path}: {exc}") from exc
        return cls.from_dict(document)
