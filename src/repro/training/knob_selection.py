"""Automated knob selection (future-work direction (2) of the paper).

"So far, we have manually selected the most impactful knobs to tune based
on our domain knowledge.  However, knob selection can be automated, as
defined by the state-of-the-art approaches in academia [32, 65]."

This module implements the OtterTune-style first stage in its simplest
trustworthy form: one-factor-at-a-time sensitivity analysis.  For each
candidate knob, every candidate value is evaluated with all other knobs at
their base values; a knob's impact is the spread of the objective across
its values.  Knobs are then ranked so the (expensive) full grid sweep of
the training pipeline can be restricted to the most impactful ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.config import ProRPConfig
from repro.errors import ConfigError
from repro.training.pipeline import CandidateResult, TrainingPipeline
from repro.tuning.candidates import validate_knob_candidates


@dataclass(frozen=True)
class KnobImpact:
    """Sensitivity of the objective to one knob."""

    knob: str
    #: Objective spread (max - min) across the knob's candidate values.
    impact: float
    #: Spread of the two KPI components, for interpretation.
    qos_spread: float
    idle_spread: float
    results: List[CandidateResult]


def rank_knobs(
    pipeline: TrainingPipeline,
    base: ProRPConfig,
    candidates: Dict[str, Sequence[Any]],
) -> List[KnobImpact]:
    """Rank knobs by objective sensitivity (most impactful first).

    ``candidates`` maps ProRPConfig field names to the values to probe.
    The probe set is validated up front by the same
    :func:`~repro.tuning.candidates.validate_knob_candidates` helper the
    online tuner uses: an unknown knob name or a value the config rejects
    raises :class:`ConfigError` *before* any simulation runs, instead of
    silently shrinking the sweep.
    """
    validate_knob_candidates(base, candidates)
    impacts: List[KnobImpact] = []
    for knob, values in sorted(candidates.items()):
        results: List[CandidateResult] = [
            pipeline.evaluate(base.with_overrides(**{knob: value}))
            for value in values
        ]
        scores = [r.score for r in results]
        qos = [r.kpis.qos_percent for r in results]
        idle = [r.kpis.idle_percent for r in results]
        impacts.append(
            KnobImpact(
                knob=knob,
                impact=max(scores) - min(scores),
                qos_spread=max(qos) - min(qos),
                idle_spread=max(idle) - min(idle),
                results=results,
            )
        )
    impacts.sort(key=lambda k: k.impact, reverse=True)
    return impacts
