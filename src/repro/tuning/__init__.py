"""Online adaptation: live knob tuning + the per-database predictor bank.

Replaces Section 8's offline monthly grid sweep (ROADMAP open item 2)
with two cooperating online subsystems:

- :mod:`repro.tuning.controller` -- a successive-halving knob tuner with
  the paper's static config as a guarded incumbent, journaled through
  the durable control plane;
- :mod:`repro.tuning.bank` -- a per-database :class:`PredictorBank`
  selecting online between the sliding-window detector and a hybrid
  histogram policy, scored by rolling prediction regret.

The windowed driver that binds them to simulated fleets lives in
:mod:`repro.tuning.driver` (imported explicitly to keep this package
importable from the simulation layer without a cycle).
"""

from repro.tuning.bank import (
    BANK_POLICIES,
    PredictorBank,
    hybrid_histogram_predict,
)
from repro.tuning.candidates import (
    TUNABLE_KNOBS,
    candidate_population,
    default_candidates,
    validate_knob_candidates,
)
from repro.tuning.controller import (
    OnlineKnobTuner,
    TunerSettings,
    TuningDecision,
)
from repro.tuning.metrics import TUNING_METRICS, register_tuning_metrics

__all__ = [
    "TUNING_METRICS",
    "register_tuning_metrics",
    "BANK_POLICIES",
    "PredictorBank",
    "hybrid_histogram_predict",
    "TUNABLE_KNOBS",
    "candidate_population",
    "default_candidates",
    "validate_knob_candidates",
    "OnlineKnobTuner",
    "TunerSettings",
    "TuningDecision",
]
