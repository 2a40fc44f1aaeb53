"""Per-database predictor bank: online selection between prediction policies.

The paper commits every database to one sliding-window detector
(Algorithm 4).  "Serverless in the Wild" showed a *hybrid* policy --
histogram-driven keep-alive windows for applications with regular idle
gaps, falling back to a fixed window otherwise -- beats any single
policy fleet-wide, and survival-analysis models adapt the idle-duration
estimate as idle time elapses.  The :class:`PredictorBank` runs those
three policies side by side per database, scores each against observed
logins with a rolling *prediction regret* (premature-resume cost vs.
late-resume QoS miss), and routes the engine's prediction requests to
the current best policy with hysteresis.

Byte-identity contract: a bank restricted to ``("sliding",)`` delegates
every call to the engine's existing :class:`FastPredictor` path
and performs **no** shadow work -- KPIs, chaos ledgers, and hot-path
counters are bit-for-bit those of a bank-less run (pinned by
``tests/test_tuning.py``).

All non-sliding policies are pure functions of the database's sorted
login-timestamp array -- exactly what :class:`LeanHistory` retains --
so the bank works unchanged on the per-actor, columnar, and lean fleet
engines, and on the serving gateway's registered fleets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.config import ProRPConfig
from repro.errors import ConfigError
from repro.observability.runtime import OBS
from repro.types import PredictedActivity

#: Every policy the bank knows, in priority (tie-break) order.
BANK_POLICIES = ("sliding", "hybrid_histogram", "survival")

_EMPTY = PredictedActivity.none()


@dataclass(frozen=True)
class BankSettings:
    """Scoring and hysteresis knobs for the predictor bank."""

    #: EWMA smoothing factor for per-(database, policy) regret.
    regret_alpha: float = 0.25
    #: A challenger policy must beat the incumbent's regret by this much...
    switch_margin: float = 0.05
    #: ...for this many consecutive scored logins before the bank switches.
    #: Most databases log in about once a day, so this is roughly "two
    #: consecutive days of clearly better predictions".
    switch_after: int = 2
    #: Regret charged when a policy missed the login (no or late prediction):
    #: the database would have resumed reactively (a QoS miss).
    miss_cost: float = 1.0
    #: Weight of premature-resume regret (idle-COGS is cheaper than a miss).
    premature_weight: float = 0.5
    #: How many recent inter-login gaps the gap-based policies look at.
    max_gaps: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.regret_alpha <= 1.0:
            raise ConfigError(
                f"regret_alpha must be in (0, 1], got {self.regret_alpha}"
            )
        if self.switch_margin < 0:
            raise ConfigError(
                f"switch_margin must be >= 0, got {self.switch_margin}"
            )
        if self.switch_after < 1:
            raise ConfigError(
                f"switch_after must be >= 1, got {self.switch_after}"
            )
        if self.miss_cost < 0 or self.premature_weight < 0:
            raise ConfigError("regret costs must be >= 0")
        if self.max_gaps < 2:
            raise ConfigError(f"max_gaps must be >= 2, got {self.max_gaps}")


DEFAULT_BANK_SETTINGS = BankSettings()


def _recent_gaps(logins: np.ndarray, max_gaps: int) -> np.ndarray:
    """Positive inter-login gaps over the most recent logins."""
    if logins.size < 2:
        return logins[:0]
    tail = logins[-(max_gaps + 1):]
    gaps = np.diff(tail)
    return gaps[gaps > 0]


def hybrid_histogram_predict(
    logins: np.ndarray,
    now: int,
    config: ProRPConfig,
    *,
    max_gaps: int = 64,
    min_gaps: int = 6,
    max_cv: float = 1.5,
) -> Optional[PredictedActivity]:
    """Histogram-driven next-activity window ("Serverless in the Wild").

    When the database's recent idle gaps are *representative* (enough
    samples, coefficient of variation under ``max_cv``), the next login
    is expected one typical gap after the last one: the activity window
    spans the 25th..90th percentile of recent gaps.  Returns ``None``
    when the histogram is unrepresentative -- the caller falls back to
    the paper's sliding-window policy, exactly the hybrid's fixed-window
    arm.
    """
    if logins.size < min_gaps + 1:
        return None
    gaps = _recent_gaps(logins, max_gaps)
    if gaps.size < min_gaps:
        return None
    mean = float(gaps.mean())
    if mean <= 0.0 or float(gaps.std()) / mean > max_cv:
        return None
    last = int(logins[-1])
    lo = int(np.percentile(gaps, 25))
    hi = int(np.percentile(gaps, 90))
    start = last + lo
    end = last + max(hi, lo + 1)
    if end <= now:
        return None  # the expected gap already elapsed: histogram is stale
    start = max(start, now)
    inside = np.count_nonzero((gaps >= lo) & (gaps <= hi))
    confidence = float(inside) / float(gaps.size)
    return PredictedActivity(start, max(end, start + 1), confidence)


def survival_predict(
    logins: np.ndarray,
    now: int,
    config: ProRPConfig,
    *,
    max_gaps: int = 64,
    min_gaps: int = 6,
    min_residuals: int = 3,
) -> Optional[PredictedActivity]:
    """Survival-style conditional idle-duration estimate.

    Treat recent inter-login gaps as idle-duration samples; given the
    idle time already *elapsed* since the last login, the conditional
    median residual of the surviving samples (gaps longer than the
    elapsed idle) estimates when the next login lands.  Re-evaluated at
    every prediction refresh, so the estimate hazards forward as idle
    time accrues -- the defining property of the survival model.
    Returns ``None`` when too few samples survive.
    """
    if logins.size < min_gaps + 1:
        return None
    gaps = _recent_gaps(logins, max_gaps)
    if gaps.size < min_gaps:
        return None
    elapsed = max(0, now - int(logins[-1]))
    survivors = gaps[gaps > elapsed]
    if survivors.size < min_residuals:
        return None
    residuals = survivors - elapsed
    start = now + int(np.percentile(residuals, 50))
    end = now + int(np.percentile(residuals, 90))
    confidence = float(survivors.size) / float(gaps.size)
    return PredictedActivity(start, max(end, start + 1), confidence)


#: Pure gap-based policies by name (sliding routes through the engine).
_GAP_POLICIES: Dict[str, Callable[..., Optional[PredictedActivity]]] = {
    "hybrid_histogram": hybrid_histogram_predict,
    "survival": survival_predict,
}


class _DbState:
    """Per-database bank state (selected policy, regret, pending shadows)."""

    __slots__ = ("selected", "regret", "pending", "streak", "scored")

    def __init__(self, n_policies: int, selected: int):
        self.selected = selected
        self.regret = [0.0] * n_policies
        #: Per-policy (made_at, prediction) awaiting the next login.
        self.pending: List[Optional[Tuple[int, PredictedActivity]]] = [
            None
        ] * n_policies
        self.streak = 0
        self.scored = 0


class PredictorBank:
    """Routes per-database predictions to the best-scoring policy.

    The engine calls :meth:`predict` wherever it used to run its sliding
    path directly, handing the bank two closures: ``sliding_fn`` (the
    engine's own FastPredictor path) and ``logins_fn`` (the
    database's sorted login array).  On every observed login the engine
    calls :meth:`observe_login`, which scores each policy's pending
    prediction and re-selects with hysteresis.
    """

    def __init__(
        self,
        policies: Tuple[str, ...],
        config: ProRPConfig,
        settings: Optional[BankSettings] = None,
    ):
        if not policies:
            raise ConfigError("PredictorBank needs at least one policy")
        ordered: List[str] = []
        for name in policies:
            if name not in BANK_POLICIES:
                raise ConfigError(
                    f"unknown predictor policy {name!r} "
                    f"(known: {', '.join(BANK_POLICIES)})"
                )
            if name not in ordered:
                ordered.append(name)
        self.policies: Tuple[str, ...] = tuple(ordered)
        self.config = config
        self.settings = settings or DEFAULT_BANK_SETTINGS
        #: Sliding-only banks are pure delegates: zero shadow work.
        self.sliding_only = self.policies == ("sliding",)
        self._default = (
            self.policies.index("sliding") if "sliding" in self.policies else 0
        )
        self._sliding_index = (
            self.policies.index("sliding") if "sliding" in self.policies else None
        )
        self._dbs: Dict[Hashable, _DbState] = {}
        self.switches = 0

    # -- prediction routing ------------------------------------------------

    def predict(
        self,
        key: Hashable,
        now: int,
        logins_fn: Callable[[], np.ndarray],
        sliding_fn: Callable[[], PredictedActivity],
    ) -> PredictedActivity:
        """The selected policy's prediction; shadows refresh as a side effect."""
        if self.sliding_only:
            return sliding_fn()
        # The sliding arm doubles as the hybrid fallback, so it is always
        # evaluated (through the engine's own sliding path).
        sliding = sliding_fn()
        state = self._dbs.get(key)
        if state is None:
            state = _DbState(len(self.policies), self._default)
            self._dbs[key] = state
        logins: Optional[np.ndarray] = None
        s = self.settings
        for i, name in enumerate(self.policies):
            if name == "sliding":
                prediction = sliding
            else:
                if logins is None:
                    logins = logins_fn()
                prediction = _GAP_POLICIES[name](
                    logins, now, self.config, max_gaps=s.max_gaps
                )
                if prediction is None:
                    prediction = sliding  # hybrid fallback to the paper policy
            state.pending[i] = (now, prediction)
        made_at, prediction = state.pending[state.selected]  # type: ignore[misc]
        return prediction

    def selected_policy(self, key: Hashable) -> str:
        """The policy currently routing ``key`` (default before feedback)."""
        state = self._dbs.get(key)
        return self.policies[state.selected if state else self._default]

    # -- regret scoring ----------------------------------------------------

    def _cost(self, made_at: int, prediction: PredictedActivity, t: int) -> float:
        s = self.settings
        empty = prediction.start == 0 and prediction.end == 0
        if empty or prediction.start > t:
            return s.miss_cost  # no/late prediction: a reactive resume
        early = t - max(prediction.start, made_at)
        horizon = max(1, self.config.logical_pause_s)
        return s.premature_weight * min(1.0, early / horizon)

    def observe_login(self, key: Hashable, t: int) -> None:
        """Score pending predictions against an actual login at ``t``."""
        if self.sliding_only:
            return
        state = self._dbs.get(key)
        if state is None:
            return
        s = self.settings
        scored_any = False
        for i, pending in enumerate(state.pending):
            if pending is None:
                continue
            made_at, prediction = pending
            cost = self._cost(made_at, prediction, t)
            state.regret[i] += s.regret_alpha * (cost - state.regret[i])
            state.pending[i] = None
            scored_any = True
            if OBS.enabled:
                OBS.metrics.histogram(
                    "tuning.bank.regret", labels={"policy": self.policies[i]}
                ).observe(cost)
                OBS.metrics.histogram_series(
                    "tuning.bank.regret.window"
                ).observe(t, cost)
        if not scored_any:
            return
        state.scored += 1
        best = min(range(len(self.policies)), key=lambda i: (state.regret[i], i))
        incumbent = state.selected
        if (
            best != incumbent
            and state.regret[incumbent] - state.regret[best] > s.switch_margin
        ):
            state.streak += 1
            if state.streak >= s.switch_after:
                state.selected = best
                state.streak = 0
                self.switches += 1
                if OBS.enabled:
                    OBS.metrics.counter(
                        "tuning.bank.switches",
                        labels={"policy": self.policies[best]},
                    ).inc()
        else:
            state.streak = 0

    # -- reporting ---------------------------------------------------------

    def selection_counts(self) -> Dict[str, int]:
        """How many observed databases each policy currently routes."""
        counts = {name: 0 for name in self.policies}
        for state in self._dbs.values():
            counts[self.policies[state.selected]] += 1
        return counts

    def selection_shares(self) -> Dict[str, float]:
        counts = self.selection_counts()
        total = sum(counts.values())
        if total == 0:
            return {name: 0.0 for name in self.policies}
        return {name: count / total for name, count in counts.items()}

    def publish_shares(self) -> None:
        """Export selection shares as ``tuning.bank.share`` gauges."""
        if not OBS.enabled:
            return
        for name, share in self.selection_shares().items():
            OBS.metrics.gauge(
                "tuning.bank.share", labels={"policy": name}
            ).set(share)
