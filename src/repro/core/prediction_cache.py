"""Always-on statistics of the prediction hot path.

Algorithm 4 anchors every candidate window at ``now`` (line 9), so a
prediction is a pure function of (login timestamps, knobs, ``now``) and a
memo keyed on ``now`` could only ever answer an exact replay of the same
call.  The simulator therefore keeps no per-database prediction memo: its
batched evaluations are same-instant ones -- the settle phase at
``sim_start`` (``ColumnarRegionEngine.seed_initial_predictions``) and each
event-loop instant where several databases refresh -- parked by database
index for the columnar engine's refreshes at that instant to take.

:data:`HOT_PATH` counts that traffic: full Algorithm-4 scans, batched fleet
evaluations, parked answers taken (``cache_hits``) and the columnar
refreshes no batch answered, each one ``FastPredictor.predict_one``
(``cache_misses``: a single-pair sweep at the paper's knobs; the names are
the ones ``benchmarks/e2e`` reads).  They are plain integer attributes (no
registry lookups) so the accounting itself stays off the profile.
"""

from __future__ import annotations

from typing import Dict


class HotPathStats:
    """Always-on counters of prediction hot-path traffic.

    ``full_scans`` counts complete Algorithm-4 evaluations (reference or
    vectorised, single-database); ``batch_evals`` counts
    ``predict_fleet`` invocations and ``batch_databases`` the databases
    they covered.  ``cache_hits`` counts batched answers the columnar
    engine consumed instead of scanning, ``cache_misses`` the predictions
    it answered one at a time (``FastPredictor.predict_one``).
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
