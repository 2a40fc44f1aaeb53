"""Configuration knobs of the ProRP infrastructure (Table 1 of the paper).

All durations are stored in seconds.

========================  =======================================  =========
Parameter                 Meaning                                  Default
========================  =======================================  =========
``logical_pause_s``       duration ``l`` of a logical pause        7 hours
``history_days``          history length ``h``                     28 days
``horizon_s``             prediction horizon ``p``                 1 day
``confidence``            confidence threshold ``c``               0.1
``window_s``              window size ``w``                        7 hours
``slide_s``               window slide ``s``                       5 minutes
``prewarm_s``             pre-warm time interval ``k``             5 minutes
``seasonality``           pattern period for Algorithm 4           daily
========================  =======================================  =========
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, replace
from typing import Any, Dict

from repro.errors import ConfigError
from repro.types import SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_MINUTE


def whole_number(name: str, value: Any, error: type = ConfigError) -> int:
    """``value`` as a Python ``int`` (numpy integers pass), else ``error``:
    simulated times are whole seconds, kept in the engines' int columns."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be a whole number, got {value!r}")


class Seasonality(enum.Enum):
    """Periodicity of the activity pattern detected by Algorithm 4.

    The paper deploys daily seasonality by default and reports that weekly
    seasonality achieves similar results (Section 9.2).
    """

    DAILY = SECONDS_PER_DAY
    WEEKLY = 7 * SECONDS_PER_DAY

    @property
    def period_seconds(self) -> int:
        return int(self.value)


@dataclass(frozen=True)
class ProRPConfig:
    """The tunable knobs of the proactive policy (Table 1).

    Instances are immutable; derive variants with :meth:`with_overrides`.
    The training pipeline (Section 8) sweeps these knobs and installs the
    configuration with the best QoS/COGS trade-off.
    """

    logical_pause_s: int = 7 * SECONDS_PER_HOUR
    history_days: int = 28
    horizon_s: int = SECONDS_PER_DAY
    confidence: float = 0.1
    window_s: int = 7 * SECONDS_PER_HOUR
    slide_s: int = 5 * SECONDS_PER_MINUTE
    prewarm_s: int = 5 * SECONDS_PER_MINUTE
    seasonality: Seasonality = Seasonality.DAILY
    #: Period of the proactive resume operation (Algorithm 5).  The paper
    #: tunes this to one minute so no iteration pre-warms more than ~100
    #: databases (Section 9.3, Figure 11).
    resume_operation_period_s: int = SECONDS_PER_MINUTE
    #: Detect daily vs weekly seasonality per database instead of using the
    #: fixed ``seasonality`` knob (an extension beyond the paper's
    #: region-wide setting; see repro.core.seasonality).
    auto_seasonality: bool = False

    def __post_init__(self) -> None:
        for name in ("logical_pause_s", "history_days", "horizon_s", "window_s",
                     "slide_s", "prewarm_s", "resume_operation_period_s"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        self.validate()

    # ------------------------------------------------------------------
    # Validation and derivation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ConfigError` if any knob is out of range."""
        if self.logical_pause_s <= 0:
            raise ConfigError("logical pause duration l must be positive")
        if self.history_days <= 0:
            raise ConfigError("history length h must be positive")
        if self.horizon_s <= 0:
            raise ConfigError("prediction horizon p must be positive")
        if not 0.0 < self.confidence <= 1.0:
            raise ConfigError(
                f"confidence threshold c must be in (0, 1], got {self.confidence}"
            )
        if self.window_s <= 0:
            raise ConfigError("window size w must be positive")
        if self.slide_s <= 0:
            raise ConfigError("window slide s must be positive")
        if self.window_s > self.horizon_s:
            raise ConfigError(
                "window size w must not exceed the prediction horizon p "
                f"(w={self.window_s}, p={self.horizon_s})"
            )
        if self.prewarm_s < 0:
            raise ConfigError("pre-warm interval k must be non-negative")
        if self.resume_operation_period_s <= 0:
            raise ConfigError("resume operation period must be positive")
        period = self.seasonality.period_seconds
        if self.history_s % period != 0:
            raise ConfigError(
                "history length must be a whole number of seasonality periods "
                f"(h={self.history_s}s, period={period}s)"
            )

    @property
    def history_s(self) -> int:
        """History length ``h`` in seconds."""
        return self.history_days * SECONDS_PER_DAY

    @property
    def seasonality_periods_in_history(self) -> int:
        """How many seasonality periods fit in the history: the confidence
        denominator of Algorithm 4 (``@h`` there, in days, for daily
        seasonality)."""
        return self.history_s // self.seasonality.period_seconds

    @property
    def windows_per_horizon(self) -> int:
        """Number of iterations of Algorithm 4's outer loop (p/s windows)."""
        if self.horizon_s < self.window_s:
            return 0
        return (self.horizon_s - self.window_s) // self.slide_s + 1

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def with_overrides(self, **overrides: Any) -> "ProRPConfig":
        """Return a copy with some knobs replaced (validates the result)."""
        return replace(self, **overrides)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the training pipeline."""
        return {
            "logical_pause_s": self.logical_pause_s,
            "history_days": self.history_days,
            "horizon_s": self.horizon_s,
            "confidence": self.confidence,
            "window_s": self.window_s,
            "slide_s": self.slide_s,
            "prewarm_s": self.prewarm_s,
            "seasonality": self.seasonality.name,
            "resume_operation_period_s": self.resume_operation_period_s,
            "auto_seasonality": self.auto_seasonality,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProRPConfig":
        """Inverse of :meth:`to_dict`."""
        kwargs = dict(data)
        kwargs["seasonality"] = Seasonality[kwargs["seasonality"]]
        kwargs.setdefault("auto_seasonality", False)
        return cls(**kwargs)


#: The production default configuration of the paper (Table 1 / Section 9.1).
DEFAULT_CONFIG = ProRPConfig()
