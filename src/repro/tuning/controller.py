"""The online knob tuner: successive halving with a guarded incumbent.

Replaces Section 8's offline monthly grid sweep with a bandit-style
controller.  A small population of candidate ``(l, c, w)`` configs is
evaluated every aligned window against live KPI feedback; losers are
pruned (successive halving), a challenger that beats both the baseline
and the active config for ``promote_after`` consecutive windows is
promoted, and the paper's static config is a *guarded incumbent*: it is
never pruned, it is scored in every window, and any active challenger
that scores below it is demoted immediately (the never-worse-than-
baseline rule).

Durability rides on the existing control plane: every window's scores
are journaled to a :class:`~repro.controlplane.durability.wal.WriteAheadLog`
*before* the pure state transition applies them, and periodic
checkpoints bound replay.  Because ``_apply_window`` is deterministic,
recovery (checkpoint + journal replay) reproduces the exact tuner state
and decision sequence -- a ``chaos --crash-recovery``-style kill changes
nothing (pinned by ``tests/test_tuning.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.config import ProRPConfig
from repro.controlplane.durability.checkpoint import (
    load_latest_checkpoint,
    write_checkpoint,
)
from repro.controlplane.durability.wal import WriteAheadLog, read_log
from repro.errors import ConfigError, TuningError
from repro.observability.runtime import OBS

#: WAL record type for one evaluated window.
WINDOW_RECORD = "tuning.window"


@dataclass(frozen=True)
class TunerSettings:
    """Hysteresis and halving knobs for the online tuner."""

    #: Consecutive winning windows a challenger needs before promotion.
    promote_after: int = 2
    #: A challenger must beat max(baseline, active) by this score margin.
    promote_margin: float = 0.1
    #: The active config is demoted the moment it scores below
    #: ``baseline - demote_margin`` (0 = strictly never worse).
    demote_margin: float = 0.0
    #: Prune the bottom half of surviving challengers every N windows.
    halve_every: int = 2
    #: Halving never cuts the challenger population below this floor.
    min_challengers: int = 1

    def __post_init__(self) -> None:
        if self.promote_after < 1:
            raise ConfigError(
                f"promote_after must be >= 1, got {self.promote_after}"
            )
        if self.promote_margin < 0 or self.demote_margin < 0:
            raise ConfigError("promotion/demotion margins must be >= 0")
        if self.halve_every < 1:
            raise ConfigError(
                f"halve_every must be >= 1, got {self.halve_every}"
            )
        if self.min_challengers < 0:
            raise ConfigError(
                f"min_challengers must be >= 0, got {self.min_challengers}"
            )


DEFAULT_TUNER_SETTINGS = TunerSettings()


@dataclass(frozen=True)
class TuningDecision:
    """What one evaluated window changed."""

    window: int
    #: Candidate index serving production traffic after this window.
    active: int
    #: Candidate indices still being evaluated (always includes 0).
    alive: Tuple[int, ...]
    #: Challenger promoted to active this window, if any.
    promoted: Optional[int] = None
    #: True when the active challenger fell below the baseline guard.
    demoted: bool = False
    #: Challengers dropped by successive halving this window.
    pruned: Tuple[int, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "window": self.window,
            "active": self.active,
            "alive": list(self.alive),
            "promoted": self.promoted,
            "demoted": self.demoted,
            "pruned": list(self.pruned),
        }


@dataclass
class _TunerState:
    """The mutable tuner state; everything recovery must reproduce."""

    active: int = 0
    alive: List[int] = field(default_factory=list)
    window: int = 0
    streaks: Dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "active": self.active,
            "alive": list(self.alive),
            "window": self.window,
            "streaks": {str(k): v for k, v in self.streaks.items()},
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "_TunerState":
        return cls(
            active=int(document["active"]),  # type: ignore[arg-type]
            alive=[int(i) for i in document["alive"]],  # type: ignore[union-attr]
            window=int(document["window"]),  # type: ignore[arg-type]
            streaks={
                int(k): int(v)
                for k, v in document["streaks"].items()  # type: ignore[union-attr]
            },
        )


class OnlineKnobTuner:
    """Successive-halving knob tuner with a journaled decision log.

    ``candidates[0]`` is always the guarded baseline (the paper's static
    config); the rest are challengers.  Drive it by calling
    :meth:`record_window` once per aligned evaluation window with the
    objective score of every *alive* candidate.
    """

    def __init__(
        self,
        baseline: ProRPConfig,
        challengers: Sequence[ProRPConfig] = (),
        state_dir: Optional[Union[str, Path]] = None,
        settings: Optional[TunerSettings] = None,
    ):
        self.candidates: Tuple[ProRPConfig, ...] = (baseline,) + tuple(challengers)
        self.settings = settings or DEFAULT_TUNER_SETTINGS
        self._state = _TunerState(alive=list(range(len(self.candidates))))
        self.decisions: List[TuningDecision] = []
        self._state_dir: Optional[Path] = None
        self._wal: Optional[WriteAheadLog] = None
        if state_dir is not None:
            self._state_dir = Path(state_dir)
            self._wal = WriteAheadLog(self._state_dir / "wal")

    # -- read-only views ---------------------------------------------------

    @property
    def baseline(self) -> ProRPConfig:
        return self.candidates[0]

    @property
    def active_index(self) -> int:
        return self._state.active

    @property
    def alive_indices(self) -> Tuple[int, ...]:
        return tuple(self._state.alive)

    @property
    def expected_window(self) -> int:
        """The next window index :meth:`record_window` will accept."""
        return self._state.window

    # -- the journaled transition ------------------------------------------

    def record_window(
        self, scores: Mapping[int, float], now: int = 0
    ) -> TuningDecision:
        """Journal one window's candidate scores, then apply them.

        ``scores`` maps candidate index -> objective score for this
        window; every alive candidate (the baseline included) must be
        present.  ``now`` stamps the WAL record with simulation time.
        Journal-before-apply: a crash between the two leaves a journaled
        window that recovery replays, so the post-recovery decision is
        identical to the one the crash interrupted.
        """
        window = self._state.window
        clean = self._check_scores(window, scores)
        if self._wal is not None:
            self._wal.append(
                {
                    "type": WINDOW_RECORD,
                    "window": window,
                    "scores": {str(i): s for i, s in clean.items()},
                },
                now=now,
            )
        decision = self._apply_window(window, clean)
        # Windowed series feed the tuning SLOs; written here (not in the
        # pure transition) so journal replay stays metric-free.
        if OBS.enabled and decision.demoted:
            OBS.metrics.counter_series("tuning.demotions.window").inc(now)
        return decision

    def _check_scores(
        self, window: int, scores: Mapping[int, float]
    ) -> Dict[int, float]:
        clean = {int(i): float(s) for i, s in scores.items()}
        missing = [i for i in self._state.alive if i not in clean]
        if missing:
            raise TuningError(
                f"window {window}: missing scores for alive candidates "
                f"{missing} (the baseline incumbent must always be scored)"
            )
        unknown = [i for i in clean if i not in self._state.alive]
        if unknown:
            raise TuningError(
                f"window {window}: scores for non-alive candidates {unknown}"
            )
        return clean

    def _apply_window(
        self, window: int, scores: Dict[int, float]
    ) -> TuningDecision:
        """Pure, deterministic state transition for one scored window."""
        state = self._state
        settings = self.settings
        baseline_score = scores[0]
        active_score = scores[state.active]

        # Never-worse-than-baseline guard: immediate demotion.
        demoted = False
        if state.active != 0 and active_score < baseline_score - settings.demote_margin:
            state.active = 0
            state.streaks.clear()
            demoted = True
            active_score = baseline_score

        # Promotion bookkeeping: a challenger must beat both the baseline
        # and whatever is active, by a margin, for consecutive windows.
        bar = max(baseline_score, active_score) + settings.promote_margin
        promoted: Optional[int] = None
        for i in state.alive:
            if i == 0 or i == state.active:
                continue
            if scores[i] > bar:
                state.streaks[i] = state.streaks.get(i, 0) + 1
            else:
                state.streaks[i] = 0
        ready = [
            i
            for i in state.alive
            if i not in (0, state.active)
            and state.streaks.get(i, 0) >= settings.promote_after
        ]
        if ready:
            # Highest score wins; ties break toward the earlier candidate.
            promoted = max(ready, key=lambda i: (scores[i], -i))
            state.active = promoted
            state.streaks.clear()

        # Successive halving on a fixed cadence: drop the bottom half of
        # the challengers (never the baseline, never the active config).
        pruned: Tuple[int, ...] = ()
        if (window + 1) % settings.halve_every == 0:
            prunable = [i for i in state.alive if i not in (0, state.active)]
            n_challengers = len([i for i in state.alive if i != 0])
            drop = min(
                len(prunable),
                n_challengers - settings.min_challengers,
                len(prunable) // 2 if len(prunable) > 1 else len(prunable),
            )
            if drop > 0:
                # Worst score first; ties drop the later candidate.
                prunable.sort(key=lambda i: (scores[i], -i))
                pruned = tuple(sorted(prunable[:drop]))
                state.alive = [i for i in state.alive if i not in pruned]
                for i in pruned:
                    state.streaks.pop(i, None)

        state.window = window + 1
        decision = TuningDecision(
            window=window,
            active=state.active,
            alive=tuple(state.alive),
            promoted=promoted,
            demoted=demoted,
            pruned=pruned,
        )
        self.decisions.append(decision)
        if OBS.enabled:
            metrics = OBS.metrics
            if promoted is not None:
                metrics.counter("tuning.promotions").inc()
            if demoted:
                metrics.counter("tuning.demotions").inc()
            if pruned:
                metrics.counter("tuning.prunes").inc(len(pruned))
            metrics.gauge("tuning.active_candidate").set(state.active)
            metrics.gauge("tuning.alive_candidates").set(len(state.alive))
            metrics.gauge("tuning.kpi_delta").set(
                scores[state.active] - baseline_score
            )
        return decision

    # -- durability --------------------------------------------------------

    def checkpoint(self) -> None:
        """Persist the current state; bounds journal replay at recovery."""
        if self._state_dir is None:
            raise TuningError("tuner has no state_dir to checkpoint into")
        if self._wal is not None:
            self._wal.sync()
        write_checkpoint(
            self._state_dir / "checkpoints",
            self._state.to_dict(),
            last_lsn=self._state.window,
        )

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()

    @classmethod
    def recover(
        cls,
        baseline: ProRPConfig,
        challengers: Sequence[ProRPConfig],
        state_dir: Union[str, Path],
        settings: Optional[TunerSettings] = None,
    ) -> "OnlineKnobTuner":
        """Rebuild a tuner from its checkpoint + journal.

        Loads the newest valid checkpoint, then replays every journaled
        window past it through the same pure transition.  Windows the
        journal holds twice (a crashed driver re-submitting) deduplicate
        by index; a gap in the window sequence is a corrupt journal and
        raises :class:`TuningError`.
        """
        state_dir = Path(state_dir)
        tuner = cls(baseline, challengers, settings=settings)
        document, _skipped = load_latest_checkpoint(state_dir / "checkpoints")
        if document is not None:
            tuner._state = _TunerState.from_dict(document["state"])  # type: ignore[arg-type]
        records, _truncated = read_log(state_dir / "wal", repair=True)
        for record in records:
            if record.get("type") != WINDOW_RECORD:
                continue
            window = int(record["window"])  # type: ignore[arg-type]
            if window < tuner._state.window:
                continue  # covered by the checkpoint or a duplicate record
            if window > tuner._state.window:
                raise TuningError(
                    f"journal gap: expected window {tuner._state.window}, "
                    f"found {window}"
                )
            scores = {
                int(i): float(s)
                for i, s in record["scores"].items()  # type: ignore[union-attr]
            }
            tuner._apply_window(window, tuner._check_scores(window, scores))
        # Re-attach the journal for new windows.
        tuner._state_dir = state_dir
        tuner._wal = WriteAheadLog(state_dir / "wal")
        return tuner
