"""The proactive resume operation (Section 7, Algorithm 5).

A periodic management-service activity: each iteration scans the metadata
store for physically paused databases whose predicted activity starts during
the k-th minute from now and pre-warms them (transitioning each to a logical
pause so the resources are ready before the customer logs in).

The operation also keeps the per-iteration batch-size log the paper studies
in Figure 11 to tune its frequency (one minute in production, so no
iteration pre-warms more than ~100 databases).

The metadata scan is the operation's infrastructure dependency, and the
fault point ``resume.scan.unavailable`` models it going away.  The scan is
wrapped in a :class:`repro.faults.RetryPolicy` (exponential backoff with
jitter), so a transient outage costs a few retries; only when the retries
are exhausted does the iteration come up empty -- the fleet then falls
back to reactive resumes for that period, exactly the Section 3.2
"Default to Reactive" posture.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Hashable, List, Protocol

from repro.errors import FaultInjectedError, ProRPError
from repro.faults.resilience import RetryPolicy
from repro.faults.runtime import FAULTS
from repro.observability.metrics import LATENCY_BUCKETS_MS
from repro.observability.runtime import OBS

#: Fault point consulted once per scan attempt: the metadata store is
#: unavailable and the attempt raises.
SCAN_FAULT_POINT = "resume.scan.unavailable"


class PrewarmSource(Protocol):
    """The metadata scan Algorithm 5 issues (either store backend works).

    It returns the keys ``on_prewarm`` takes: database ids from the
    B-tree stores, row indices from the columnar engine's column store.
    """

    def databases_to_prewarm(
        self, now: int, prewarm_s: int, period_s: int
    ) -> List[Hashable]: ...


@dataclass
class IterationRecord:
    """One iteration of the proactive resume operation."""

    time: int
    database_ids: List[str]
    #: Scan attempts that failed before this iteration's outcome (0 on the
    #: happy path; == retry budget when the iteration gave up empty).
    scan_failures: int = 0

    @property
    def batch_size(self) -> int:
        return len(self.database_ids)


class ProactiveResumeOperation:
    """Periodic pre-warm of databases ahead of predicted activity."""

    def __init__(
        self,
        metadata: PrewarmSource,
        prewarm_s: int,
        period_s: int,
        on_prewarm: Callable[[str, int], None],
    ):
        """``on_prewarm(database_id, now)`` performs the actual allocation
        (Algorithm 5 line 8 calls the database's LogicalPause())."""
        if period_s <= 0:
            raise ValueError("the operation period must be positive")
        self._metadata = metadata
        self._prewarm_s = prewarm_s
        self._period_s = period_s
        self._on_prewarm = on_prewarm
        self._retry = RetryPolicy(
            max_attempts=3, base_delay_s=1.0, multiplier=2.0, jitter=0.1
        )
        self.iterations: List[IterationRecord] = []
        #: Scan attempts that failed across the whole run (transient).
        self.scan_failures = 0
        #: Iterations abandoned after exhausting the retry budget.
        self.failed_iterations = 0

    @property
    def period_s(self) -> int:
        return self._period_s

    def run_once(self, now: int) -> IterationRecord:
        """Execute one iteration at time ``now``: select and pre-warm.

        All wall-clock timing lives strictly inside the ``OBS.enabled``
        branch: the disabled path performs no ``perf_counter`` calls.
        """
        if not OBS.enabled:
            return self._run_once(now)
        started = _time.perf_counter()
        with OBS.tracer.span("resume.scan", t=now) as span:
            record = self._run_once(now)
            span.set_attribute("batch_size", record.batch_size)
        OBS.metrics.histogram(
            "resume.scan.duration_ms", buckets=LATENCY_BUCKETS_MS
        ).observe((_time.perf_counter() - started) * 1000.0)
        OBS.metrics.counter("resume.scan.iterations").inc()
        OBS.metrics.counter("resume.scan.prewarms").inc(record.batch_size)
        return record

    def _scan(self, now: int) -> List[Hashable]:
        """One scan attempt against the metadata store."""
        if FAULTS.enabled and FAULTS.injector.should_fire(SCAN_FAULT_POINT, now):
            raise FaultInjectedError(
                SCAN_FAULT_POINT, "injected: metadata store unavailable"
            )
        return self._metadata.databases_to_prewarm(
            now, self._prewarm_s, self._period_s
        )

    def _on_scan_retry(self, attempt: int, delay_s: float, error: BaseException) -> None:
        self.scan_failures += 1
        if FAULTS.enabled and FAULTS.injector is not None:
            FAULTS.injector.note("retry.resume.scan")
        if OBS.enabled:
            OBS.metrics.counter("resume.scan.retries").inc()

    def _run_once(self, now: int) -> IterationRecord:
        failures_before = self.scan_failures
        try:
            selected = self._retry.call(
                lambda: self._scan(now),
                retry_on=(ProRPError,),
                on_retry=self._on_scan_retry,
            )
        except ProRPError:
            # Retry budget exhausted: no pre-warms this period.  The fleet
            # degrades to reactive resumes until the next iteration.
            self.scan_failures += 1
            self.failed_iterations += 1
            if OBS.enabled:
                OBS.metrics.counter("resume.scan.failed_iterations").inc()
            selected = []
        record = IterationRecord(
            time=now,
            database_ids=list(selected),
            scan_failures=self.scan_failures - failures_before,
        )
        self.iterations.append(record)
        for database_id in selected:
            self._on_prewarm(database_id, now)
        return record
