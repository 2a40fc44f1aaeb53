"""Resilience primitives: retry with backoff, deadlines, circuit breaking.

These are the defensive half of the fault subsystem -- the machinery that
keeps the control plane safe when the faults of ``repro.faults.injector``
(or real infrastructure) misbehave:

* :class:`RetryPolicy` -- bounded retries with exponential backoff and
  deterministic jitter; the proactive resume scan uses it so a transient
  metadata-store outage costs a few retries, not a missed pre-warm cycle.
* :class:`Deadline` -- a time budget guard for operations that must not
  run past a bound (the paper's stuck-workflow mitigation window).
* :class:`CircuitBreaker` -- closed/open/half-open breaker driven by
  sim-time; the proactive policy trips one on repeated predictor failures
  and degrades to the reactive policy (Section 3.2's "Default to
  Reactive") until the breaker recovers.

Everything here is deterministic: backoff jitter comes from a seeded PRNG
and breaker transitions are driven by the caller's clock, so chaos runs
replay bit-for-bit.
"""

from __future__ import annotations

import enum
import random
import time
from typing import Callable, List, Optional, Tuple, Type

from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    ProRPError,
)
from repro.faults.runtime import FAULTS
from repro.observability.runtime import OBS


class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    The backoff schedule (seconds before attempt 2, 3, ...) is fixed at
    construction; ``call`` runs a function under the policy and passes
    each delay to ``on_retry``.  The simulator never sleeps -- callers
    pass ``sleep=None`` (the default) to merely count the backoff, or
    their own sink to account simulated delay.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay_s: float = 1.0,
        multiplier: float = 2.0,
        max_delay_s: float = 60.0,
        jitter: float = 0.0,
        seed: int = 0,
    ):
        if max_attempts < 1:
            raise ConfigError("RetryPolicy needs at least one attempt")
        if base_delay_s < 0 or max_delay_s < 0:
            raise ConfigError("retry delays must be non-negative")
        if multiplier < 1.0:
            raise ConfigError("retry multiplier must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ConfigError("retry jitter must be in [0, 1]")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.multiplier = multiplier
        self.max_delay_s = max_delay_s
        self.jitter = jitter
        # The schedule depends only on the arguments: drawn once, here.
        rng = random.Random(f"{seed}:retry")
        self._delays: List[float] = []
        delay = base_delay_s
        for _ in range(max_attempts - 1):
            bounded = min(delay, max_delay_s)
            if jitter:
                # Full jitter around the nominal delay: +/- jitter fraction.
                bounded *= 1.0 + jitter * (2.0 * rng.random() - 1.0)
            self._delays.append(bounded)
            delay *= multiplier

    def call(
        self,
        fn: Callable[[], object],
        retry_on: Tuple[Type[BaseException], ...] = (ProRPError,),
        on_retry: Optional[Callable[[int, float, BaseException], None]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> object:
        """Run ``fn`` with retries; re-raises the last failure when the
        attempts are exhausted.  ``on_retry(attempt, delay_s, error)`` is
        invoked before each retry."""
        schedule = self._delays
        last: Optional[BaseException] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except retry_on as exc:
                last = exc
                if attempt == self.max_attempts:
                    break
                delay = schedule[attempt - 1]
                if on_retry is not None:
                    on_retry(attempt, delay, exc)
                if sleep is not None:
                    sleep(delay)
        assert last is not None
        raise last


class Deadline:
    """A time budget: ``check()`` raises once the budget is spent.

    The clock is injectable so simulated components can drive it from
    sim-time ticks instead of wall time.
    """

    def __init__(
        self,
        budget_s: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if budget_s < 0:
            raise ConfigError("a deadline budget must be non-negative")
        self._clock = clock
        self._expires_at = clock() + budget_s

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, what: str = "operation") -> None:
        if self.expired:
            raise DeadlineExceededError(f"{what} exceeded its deadline")


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Gauge encoding of breaker states for the metrics registry.
_BREAKER_GAUGE = {
    BreakerState.CLOSED: 0,
    BreakerState.OPEN: 1,
    BreakerState.HALF_OPEN: 2,
}


class CircuitBreaker:
    """A sim-time circuit breaker.

    CLOSED counts consecutive failures; at ``failure_threshold`` it OPENs
    and :meth:`allow` refuses calls for ``recovery_s``.  The first allowed
    call after the recovery window runs HALF_OPEN: its success re-CLOSEs
    the breaker, its failure re-OPENs it.

    All transitions are driven by the ``now`` the caller passes in, so a
    breaker inside the discrete-event simulator trips and recovers on the
    simulated clock, deterministically.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_s: int = 900,
        name: str = "breaker",
    ):
        if failure_threshold < 1:
            raise ConfigError("failure_threshold must be at least 1")
        if recovery_s < 0:
            raise ConfigError("recovery_s must be non-negative")
        self.name = name
        self._failure_threshold = failure_threshold
        self._recovery_s = recovery_s
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[int] = None
        #: Times the breaker transitioned CLOSED/HALF_OPEN -> OPEN.
        self.opens = 0

    @property
    def state(self) -> BreakerState:
        return self._state

    def _transition(self, state: BreakerState, now: int) -> None:
        if state is self._state:
            return
        self._state = state
        if state is BreakerState.OPEN:
            self.opens += 1
            self._opened_at = now
            if FAULTS.enabled and FAULTS.injector is not None:
                FAULTS.injector.note(f"breaker.{self.name}.open")
        if OBS.enabled:
            OBS.metrics.counter(
                f"breaker.{self.name}.transition.{state.value}"
            ).inc()
            OBS.metrics.gauge(f"breaker.{self.name}.state").set(
                _BREAKER_GAUGE[state]
            )
            # Windowed state series on the caller's (sim) clock: the
            # predictor_unavailable SLO thresholds on its last sample.
            OBS.metrics.gauge_series(
                f"breaker.{self.name}.state.window"
            ).set(now, _BREAKER_GAUGE[state])

    def allow(self, now: int) -> bool:
        """Whether a call may proceed at sim-time ``now``.  Moving from
        OPEN past the recovery window flips to HALF_OPEN (probe mode)."""
        if self._state is BreakerState.OPEN:
            assert self._opened_at is not None
            if now - self._opened_at >= self._recovery_s:
                self._transition(BreakerState.HALF_OPEN, now)
                return True
            return False
        return True

    def record_success(self, now: int) -> None:
        self._consecutive_failures = 0
        if self._state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED, now)

    def record_failure(self, now: int) -> None:
        if self._state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.OPEN, now)
            return
        self._consecutive_failures += 1
        if (
            self._state is BreakerState.CLOSED
            and self._consecutive_failures >= self._failure_threshold
        ):
            self._transition(BreakerState.OPEN, now)
