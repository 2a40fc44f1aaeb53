"""Always-on statistics of the prediction hot path.

Algorithm 4 anchors every candidate window at ``now`` (line 9), so a
prediction is a pure function of (login timestamps, knobs, ``now``) and a
memo keyed on ``now`` could only ever answer an exact replay of the same
call.  The simulator therefore keeps no per-database prediction memo: the
one batched evaluation it makes -- the settle phase at ``sim_start``, where
every idle-old database predicts at the same instant -- is handed to the
columnar engine by database index (``ColumnarRegionEngine.
seed_initial_predictions``) and consumed inside ``start(d)``.

:data:`HOT_PATH` counts that traffic: full Algorithm-4 scans, batched fleet
evaluations, settle answers consumed (``cache_hits``) and columnar scalar
fall-throughs (``cache_misses``; the names are the ones ``benchmarks/e2e``
reads).  They are plain integer attributes (no registry lookups) so the
accounting itself stays off the profile.
"""

from __future__ import annotations

from typing import Dict


class HotPathStats:
    """Always-on counters of prediction hot-path traffic.

    ``full_scans`` counts complete Algorithm-4 evaluations (reference or
    vectorised, single-database); ``batch_evals`` counts
    ``predict_fleet`` invocations and ``batch_databases`` the databases
    they covered.  ``cache_hits`` counts settle-batch answers the columnar
    engine consumed instead of scanning, ``cache_misses`` the predictions
    it answered with the scalar kernel.
    """

    __slots__ = (
        "full_scans",
        "batch_evals",
        "batch_databases",
        "cache_hits",
        "cache_misses",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.full_scans = 0
        self.batch_evals = 0
        self.batch_databases = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def predictor_invocations(self) -> int:
        """Predictor entry points paid for: every full scan plus one per
        batched evaluation (the batch costs one kernel pass, not D)."""
        return self.full_scans + self.batch_evals


#: Process-wide hot-path statistics (benchmarks reset() around runs).
HOT_PATH = HotPathStats()
