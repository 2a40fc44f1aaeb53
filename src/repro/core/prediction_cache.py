"""Always-on statistics of the prediction hot path.

Algorithm 4 anchors every candidate window at ``now`` (line 9), so a
prediction is a pure function of (login timestamps, knobs, ``now``) and a
memo keyed on ``now`` could only ever answer an exact replay of the same
call.  The simulator therefore keeps no per-database prediction memo:
the columnar engine computes answers ahead for refreshes whose instant
is already known -- the settle phase at ``sim_start``
(``ColumnarRegionEngine.seed_initial_predictions``) and the speculation
batch a refresh with no parked answer opens over the next simulated hour
-- and parks each under (instant, config, login count) for that
database's refresh to take.  A speculation batch may make a second
``predict_fleet`` call, its follow-up round: answers at ``instant + 1``
for the answers that make Algorithm 1 re-decide one second later.

:data:`HOT_PATH` counts that traffic: full Algorithm-4 scans, batched
fleet evaluations, speculated answers taken (``cache_hits``) and the
refreshes that found none and opened a speculation batch
(``cache_misses``), so ``batch_databases - cache_misses`` is the answers
speculated, follow-ups included; a follow-up round is one more
``batch_evals`` (the names are the ones ``benchmarks/e2e`` reads).  They
are plain integer attributes (no registry lookups) so the accounting
itself stays off the profile.
"""

from __future__ import annotations

from typing import Dict


class HotPathStats:
    """Always-on counters of prediction hot-path traffic.

    ``full_scans`` counts complete Algorithm-4 evaluations (reference or
    vectorised, single-database); ``batch_evals`` counts
    ``predict_fleet`` invocations and ``batch_databases`` the databases
    they covered.  ``cache_hits`` counts parked answers the columnar
    engine's refreshes took, ``cache_misses`` the refreshes that found
    none and opened a batch (with adaptive seasonality, one
    ``FastPredictor.predict_one``).
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
