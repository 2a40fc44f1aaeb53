"""Workflow engine: queued resume/pause operations with bounded
concurrency and fault injection.

Workflows are driven by explicit ``tick(now)`` calls so the engine can be
tested standalone and stress-tested at the volumes of Figures 11-12
without entangling the KPI simulator.

Every state change is a plain-dict transition record passed through
``WorkflowEngine._journal`` and then ``WorkflowEngine._apply``, the one
place the queues, the workflow table and the id allocator change.  The
durable subclass in :mod:`repro.controlplane.durability.engine` journals
those records to a write-ahead log and recovers by replaying them
through the same ``_apply``.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.errors import WorkflowError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.observability.runtime import OBS

#: Fault point consulted when a workflow starts: it hangs instead of
#: progressing (the Section 7 failure mode the diagnostics runner retries).
STUCK_POINT = "workflow.stuck"

#: Fault point consulted when a workflow starts: it dies outright and goes
#: terminal FAILED without any mitigation window (node loss mid-workflow).
CRASH_POINT = "workflow.crash"


class WorkflowKind(enum.Enum):
    PROACTIVE_RESUME = "proactive_resume"
    REACTIVE_RESUME = "reactive_resume"
    PHYSICAL_PAUSE = "physical_pause"


class WorkflowState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    #: Stopped making progress (fault injection); needs mitigation.
    STUCK = "stuck"
    #: Mitigation retried it; terminal success is still possible.
    MITIGATED = "mitigated"
    #: Gave up after mitigation attempts: incident territory.
    FAILED = "failed"


@dataclass
class Workflow:
    """One resume/pause workflow instance."""

    workflow_id: int
    kind: WorkflowKind
    database_id: str
    submitted_at: int
    duration_s: int
    state: WorkflowState = WorkflowState.PENDING
    started_at: Optional[int] = None
    finished_at: Optional[int] = None
    retries: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in (WorkflowState.SUCCEEDED, WorkflowState.FAILED)


class WorkflowEngine:
    """Bounded-concurrency workflow executor with fault injection.

    ``stuck_probability`` is the chance that a started workflow hangs
    instead of completing -- the failure mode the diagnostics runner of
    Section 7 exists to mitigate.  Fault decisions flow through a
    :class:`repro.faults.FaultInjector`: by default the engine builds one
    from ``stuck_probability``/``seed``, and callers (chaos experiments)
    may pass their own ``injector`` with :data:`STUCK_POINT` and/or
    :data:`CRASH_POINT` specs to drive richer failure schedules.

    Every transition is a plain-dict record (``submitted``, ``started``,
    ``stuck``, ``crashed``, ``mitigated``, ``succeeded``, ``failed``).  The
    public operations decide a transition, hand its record to
    :meth:`_journal`, then to :meth:`_apply` -- the one place the queues,
    the workflow table and the id allocator change.  ``_journal`` is a
    no-op here; :class:`repro.controlplane.durability.engine.
    DurableWorkflowEngine` overrides it to append to a write-ahead log
    (journal-before-apply: if the append raises, the transition never
    happened) and replays that log through the same ``_apply``.
    """

    def __init__(
        self,
        max_concurrent: int = 100,
        default_duration_s: int = 45,
        stuck_probability: float = 0.0,
        seed: int = 0,
        injector: Optional[FaultInjector] = None,
    ):
        if max_concurrent <= 0:
            raise WorkflowError("max_concurrent must be positive")
        if not 0.0 <= stuck_probability < 1.0:
            raise WorkflowError("stuck_probability must be in [0, 1)")
        self._max_concurrent = max_concurrent
        self._default_duration_s = default_duration_s
        if injector is None:
            plan = (
                FaultPlan.of(FaultSpec(STUCK_POINT, probability=stuck_probability))
                if stuck_probability > 0.0
                else FaultPlan.empty()
            )
            injector = FaultInjector(plan, seed=seed)
        self._injector = injector
        self._next_id = 0
        self._pending: Deque[Workflow] = deque()
        self._running: List[Workflow] = []
        self.workflows: Dict[int, Workflow] = {}

    @property
    def injector(self) -> FaultInjector:
        """The fault injector driving stuck/crash decisions."""
        return self._injector

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def _journal(self, record: Dict[str, object]) -> None:
        """Persist ``record`` before it is applied; in memory, nothing."""

    def _step(self, record: Dict[str, object]) -> Workflow:
        self._journal(record)
        return self._apply(record)

    def _apply(self, record: Dict[str, object]) -> Workflow:
        """Apply one transition record; returns the workflow it moved.

        Records are trusted: the live operations only build valid ones,
        and recovery checks each journaled record before applying it.
        """
        kind = record["type"]
        at = int(record["at"])
        if kind == "submitted":
            workflow = Workflow(
                workflow_id=int(record["wf"]),
                kind=WorkflowKind(record["kind"]),
                database_id=record["db"],
                submitted_at=at,
                duration_s=int(record["duration_s"]),
            )
            self.workflows[workflow.workflow_id] = workflow
            self._pending.append(workflow)
            self._next_id = max(self._next_id, workflow.workflow_id + 1)
            return workflow
        workflow = self.workflows[int(record["wf"])]
        if kind in ("started", "stuck", "crashed"):
            # Start decisions are taken for the pending head only.
            self._pending.popleft()
            workflow.started_at = at
            if kind == "crashed":
                workflow.state = WorkflowState.FAILED
                workflow.finished_at = at
            else:
                workflow.state = (
                    WorkflowState.STUCK if kind == "stuck" else WorkflowState.RUNNING
                )
                self._running.append(workflow)
        elif kind == "succeeded":
            self._running.remove(workflow)
            workflow.state = WorkflowState.SUCCEEDED
            workflow.finished_at = at
        elif kind == "mitigated":
            self._running.remove(workflow)
            workflow.state = WorkflowState.MITIGATED
            workflow.retries += 1
            workflow.started_at = None
            self._pending.appendleft(workflow)
        elif kind == "failed":
            # A mitigated workflow waits in ``_pending``; failing it there
            # must not leave a terminal workflow behind for ``_tick``.
            if workflow in self._running:
                self._running.remove(workflow)
            if workflow in self._pending:
                self._pending.remove(workflow)
            workflow.state = WorkflowState.FAILED
            workflow.finished_at = at
        else:
            raise WorkflowError(f"unknown transition record type {kind!r}")
        return workflow

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        kind: WorkflowKind,
        database_id: str,
        now: int,
        duration_s: Optional[int] = None,
    ) -> Workflow:
        workflow = self._step(
            {
                "type": "submitted",
                "wf": self._next_id,
                "kind": kind.value,
                "db": database_id,
                "at": now,
                "duration_s": (
                    duration_s if duration_s is not None else self._default_duration_s
                ),
            }
        )
        if OBS.enabled:
            OBS.metrics.counter(f"workflow.submitted.{kind.value}").inc()
            OBS.metrics.gauge("workflow.pending").set(len(self._pending))
        return workflow

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def tick(self, now: int) -> List[Workflow]:
        """Advance the engine: finish due workflows, start pending ones.
        Returns workflows that reached SUCCEEDED during this tick."""
        if not OBS.enabled:
            return self._tick(now)
        with OBS.tracer.span("workflow.tick", t=now) as span:
            completed = self._tick(now)
            span.set_attribute("completed", len(completed))
        OBS.metrics.counter("workflow.completed").inc(len(completed))
        OBS.metrics.gauge("workflow.running").set(len(self._running))
        OBS.metrics.gauge("workflow.pending").set(len(self._pending))
        return completed

    def _tick(self, now: int) -> List[Workflow]:
        completed: List[Workflow] = []
        # Each transition is journaled and applied in full before the next
        # one is decided: an exception from ``_journal`` leaves every
        # earlier transition applied and the interrupted one not at all.
        index = 0
        while index < len(self._running):
            workflow = self._running[index]
            if (
                workflow.state is not WorkflowState.STUCK
                and workflow.started_at + workflow.duration_s <= now
            ):
                self._step(
                    {"type": "succeeded", "wf": workflow.workflow_id, "at": now}
                )
                completed.append(workflow)
            else:
                index += 1
        while self._pending and len(self._running) < self._max_concurrent:
            wf = self._pending[0].workflow_id
            if self._injector.should_fire(CRASH_POINT, now):
                # The workflow dies outright: terminal, one incident-worthy
                # failure, never enters the running set.
                self._step({"type": "crashed", "wf": wf, "at": now})
                if OBS.enabled:
                    OBS.metrics.counter("workflow.crashed").inc()
                continue
            stuck = self._injector.should_fire(STUCK_POINT, now)
            self._step({"type": "stuck" if stuck else "started", "wf": wf, "at": now})
        return completed

    # ------------------------------------------------------------------
    # Mitigation hooks (used by the diagnostics runner)
    # ------------------------------------------------------------------

    def stuck_workflows(self, now: int, stuck_after_s: int) -> List[Workflow]:
        """Workflows that stopped making progress for ``stuck_after_s``."""
        return [
            w
            for w in self._running
            if w.state is WorkflowState.STUCK
            and now - w.started_at >= stuck_after_s
        ]

    def retry(self, workflow: Workflow, now: int) -> None:
        """Mitigate a stuck workflow: restart it at the queue head."""
        if workflow.state is not WorkflowState.STUCK:
            raise WorkflowError(
                f"workflow {workflow.workflow_id} is {workflow.state.value}, not stuck"
            )
        self._step({"type": "mitigated", "wf": workflow.workflow_id, "at": now})
        if OBS.enabled:
            OBS.metrics.counter("workflow.mitigated").inc()

    def fail(self, workflow: Workflow, now: int) -> None:
        """Give up on a workflow (incident escalation); a terminal
        workflow cannot be failed again."""
        if workflow.terminal:
            raise WorkflowError(
                f"workflow {workflow.workflow_id} is already {workflow.state.value}"
            )
        self._step({"type": "failed", "wf": workflow.workflow_id, "at": now})
        if OBS.enabled:
            OBS.metrics.counter("workflow.failed").inc()

    # ------------------------------------------------------------------
    # Monitoring surface
    # ------------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def running_count(self) -> int:
        return len(self._running)

    def queue_depth(self, kind: WorkflowKind) -> int:
        return sum(1 for w in self._pending if w.kind is kind)

    def drained(self) -> bool:
        return not self._pending and not self._running
