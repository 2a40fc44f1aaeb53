"""The durable, exactly-once workflow engine.

:class:`DurableWorkflowEngine` is a subclass of the in-memory
:class:`~repro.controlplane.workflows.WorkflowEngine` that backs it with
an event-sourced ledger:

* it overrides ``_journal`` so every transition record (submitted /
  started / stuck / crashed / mitigated / succeeded / failed) is appended
  to a checksummed, segmented
  :class:`~repro.controlplane.durability.wal.WriteAheadLog` *before*
  ``WorkflowEngine._apply`` changes the in-memory state
  (journal-before-apply);
* every ``checkpoint_every`` records a full-state checkpoint is written
  crash-safely, bounding recovery replay to the WAL suffix;
* :meth:`recover` rebuilds an identical engine from the ledger after a
  crash by checking each journaled record and handing it to the same
  ``_apply`` the live path uses -- pending/running orders, terminal outcomes, retry counts, the
  id allocator, *and* the fault injector's PRNG streams, so post-recovery
  stuck/crash decisions continue the exact schedule an uninterrupted run
  would have produced.

Exactly-once semantics, from the ledger's point of view:

* a transition whose append was interrupted (crash / torn tail) was never
  applied; recovery truncates it and the transition is re-decided, once,
  after restart;
* a transition that reached the log is applied during replay exactly
  once; replayed events for a workflow that is already terminal are
  deduplicated by ``workflow_id`` (counted in ``recovery_info``), so
  completed work is never re-executed.

Determinism note: replay does not trust the fault injector to re-decide
journaled transitions -- the decision is in the event type -- but it
*re-consults* the injector for each replayed start decision so the PRNG
streams advance exactly as they did live.  A replayed decision that
contradicts the re-consultation means the log was produced under a
different plan or seed, and recovery refuses it.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.controlplane.durability.checkpoint import (
    load_latest_checkpoint,
    write_checkpoint,
)
from repro.controlplane.durability.wal import (
    WriteAheadLog,
    _scan_segment,
    read_log,
    segment_paths,
)
from repro.controlplane.workflows import (
    CRASH_POINT,
    STUCK_POINT,
    Workflow,
    WorkflowEngine,
    WorkflowKind,
    WorkflowState,
)
from repro.errors import WalCorruptionError, WalError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.observability.runtime import OBS

#: Transition record types, in the order the engine can emit them.
EVENT_TYPES = (
    "submitted",
    "started",
    "stuck",
    "crashed",
    "mitigated",
    "succeeded",
    "failed",
)

#: Terminal record types -- at most one per workflow id in a clean ledger.
TERMINAL_EVENTS = ("crashed", "succeeded", "failed")


class DurableWorkflowEngine(WorkflowEngine):
    """A :class:`WorkflowEngine` whose state survives process death.

    Use the constructor for a fresh ledger directory and
    :meth:`recover` to resume from an existing one.  On top of the
    in-memory engine's surface it adds checkpointing and ledger
    introspection.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_concurrent: int = 100,
        default_duration_s: int = 45,
        stuck_probability: float = 0.0,
        seed: int = 0,
        plan: Optional[FaultPlan] = None,
        checkpoint_every: int = 256,
        segment_max_bytes: int = 1 << 20,
        fsync: bool = True,
        _recovering: bool = False,
    ):
        self._directory = Path(directory)
        if not _recovering and segment_paths(self._directory):
            raise WalError(
                f"{self._directory} already holds a WAL; use "
                "DurableWorkflowEngine.recover() to resume it"
            )
        super().__init__(
            max_concurrent=max_concurrent,
            default_duration_s=default_duration_s,
            stuck_probability=stuck_probability,
            seed=seed,
            injector=None if plan is None else FaultInjector(plan, seed=seed),
        )
        self._config = {
            "max_concurrent": max_concurrent,
            "default_duration_s": default_duration_s,
            "stuck_probability": stuck_probability,
            "seed": seed,
        }
        self._checkpoint_every = checkpoint_every
        self._lsn = 0
        self._last_checkpoint_lsn = 0
        self.recovery_info: Dict[str, int] = {}
        self._wal = WriteAheadLog(
            self._directory,
            segment_max_bytes=segment_max_bytes,
            fsync=fsync,
        )
        if not _recovering:
            self._journal(
                {
                    "type": "open",
                    "config": dict(self._config),
                    "plan": self._injector.plan.to_dict(),
                }
            )

    # ------------------------------------------------------------------
    # Journal side (write path)
    # ------------------------------------------------------------------

    def _journal(self, record: Dict[str, object]) -> None:
        """Stamp the LSN and append.  A raise here (injected control-plane
        crash) aborts the transition before ``_apply`` -- it never
        happened."""
        document = dict(record)
        document["lsn"] = self._lsn
        self._wal.append(document, now=record.get("at"))
        self._lsn += 1

    def submit(
        self,
        kind: WorkflowKind,
        database_id: str,
        now: int,
        duration_s: Optional[int] = None,
    ) -> Workflow:
        workflow = super().submit(kind, database_id, now, duration_s)
        self._maybe_checkpoint()
        return workflow

    def tick(self, now: int) -> List[Workflow]:
        completed = super().tick(now)
        self._maybe_checkpoint()
        return completed

    def retry(self, workflow: Workflow, now: int) -> None:
        super().retry(workflow, now)
        self._maybe_checkpoint()

    def fail(self, workflow: Workflow, now: int) -> None:
        super().fail(workflow, now)
        self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        if (
            self._checkpoint_every > 0
            and self._lsn - self._last_checkpoint_lsn >= self._checkpoint_every
        ):
            self.checkpoint()

    def checkpoint(self) -> Path:
        """Write a full-state checkpoint covering every journaled record.

        Called automatically every ``checkpoint_every`` records, by the
        serving gateway's graceful drain, and by :meth:`close`.
        """
        started = time.perf_counter()
        self._wal.sync()
        path = write_checkpoint(self._directory, self.state_doc(), self._lsn)
        self._last_checkpoint_lsn = self._lsn
        if OBS.enabled:
            OBS.metrics.counter("workflow.checkpoint.writes").inc()
            OBS.metrics.histogram("workflow.checkpoint.write_ms").observe(
                (time.perf_counter() - started) * 1000.0
            )
        return path

    def compact(self) -> int:
        """Drop closed WAL segments fully covered by the newest
        checkpoint; returns how many segments were removed.  The ledger
        is append-only by default -- compaction is an explicit operator
        action that trades replayable history for disk."""
        checkpoint, _ = load_latest_checkpoint(self._directory)
        if checkpoint is None:
            return 0
        covered_below = int(checkpoint["last_lsn"])
        removed = 0
        for path in segment_paths(self._directory)[:-1]:
            records, _ = _scan_segment(path.read_bytes())
            if records and all(
                int(r.get("lsn", covered_below)) < covered_below for r in records
            ):
                path.unlink()
                removed += 1
            else:
                break  # segments are ordered; later ones are newer
        if removed and OBS.enabled:
            OBS.metrics.gauge("workflow.wal.segments").set(
                self._wal.segment_count
            )
        return removed

    def close(self) -> None:
        """Checkpoint and release the log (the graceful-shutdown path)."""
        self.checkpoint()
        self._wal.close()

    # ------------------------------------------------------------------
    # State serialization
    # ------------------------------------------------------------------

    def state_doc(self) -> Dict[str, object]:
        """A canonical snapshot of everything recovery must reproduce --
        the checkpoint body, and the document the crash/recovery property
        tests compare."""
        return {
            "config": dict(self._config),
            "next_id": self._next_id,
            "workflows": [
                {
                    "wf": w.workflow_id,
                    "kind": w.kind.value,
                    "db": w.database_id,
                    "submitted_at": w.submitted_at,
                    "duration_s": w.duration_s,
                    "state": w.state.value,
                    "started_at": w.started_at,
                    "finished_at": w.finished_at,
                    "retries": w.retries,
                }
                for w in self.workflows.values()
            ],
            "pending": [w.workflow_id for w in self._pending],
            "running": [w.workflow_id for w in self._running],
            "injector": self._injector.state_snapshot(),
        }

    def _restore_state(self, state: Dict[str, object]) -> None:
        self._next_id = int(state["next_id"])
        self.workflows = {}
        for doc in state["workflows"]:
            workflow = Workflow(
                workflow_id=int(doc["wf"]),
                kind=WorkflowKind(doc["kind"]),
                database_id=doc["db"],
                submitted_at=int(doc["submitted_at"]),
                duration_s=int(doc["duration_s"]),
                state=WorkflowState(doc["state"]),
                started_at=doc["started_at"],
                finished_at=doc["finished_at"],
                retries=int(doc["retries"]),
            )
            self.workflows[workflow.workflow_id] = workflow
        self._pending.clear()
        self._pending.extend(self.workflows[wf] for wf in state["pending"])
        self._running = [self.workflows[wf] for wf in state["running"]]
        self._injector.restore_state(state["injector"])

    # ------------------------------------------------------------------
    # Recovery (read path)
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        directory: Union[str, Path],
        checkpoint_every: int = 256,
        segment_max_bytes: int = 1 << 20,
        fsync: bool = True,
    ) -> "DurableWorkflowEngine":
        """Rebuild the engine from ``directory``'s checkpoint + WAL.

        Torn/corrupt tail records are truncated (the transitions they
        held were never applied); the newest valid checkpoint seeds the
        state; the WAL suffix past its LSN is replayed with per-workflow
        deduplication.  The result is ready to ``tick()`` onward.
        """
        directory = Path(directory)
        records, truncated_bytes = read_log(directory, repair=True)
        checkpoint, skipped = load_latest_checkpoint(directory)

        config: Optional[Dict[str, object]] = None
        plan_doc: Optional[Dict[str, object]] = None
        if checkpoint is not None:
            config = dict(checkpoint["state"]["config"])
            plan_doc = checkpoint["state"]["injector"]["plan"]
        elif records and records[0].get("type") == "open":
            config = dict(records[0]["config"])
            plan_doc = records[0]["plan"]
        if config is None:
            raise WalError(
                f"{directory} holds neither a valid checkpoint nor an "
                "open record: nothing to recover"
            )

        engine = cls(
            directory,
            max_concurrent=int(config["max_concurrent"]),
            default_duration_s=int(config["default_duration_s"]),
            stuck_probability=float(config["stuck_probability"]),
            seed=int(config["seed"]),
            plan=FaultPlan.from_dict(plan_doc),
            checkpoint_every=checkpoint_every,
            segment_max_bytes=segment_max_bytes,
            fsync=fsync,
            _recovering=True,
        )
        start_lsn = 0
        if checkpoint is not None:
            engine._restore_state(checkpoint["state"])
            start_lsn = int(checkpoint["last_lsn"])
        engine._lsn = start_lsn
        engine._last_checkpoint_lsn = start_lsn

        replayed = deduped = 0
        for record in records:
            lsn = int(record["lsn"])
            if lsn < start_lsn:
                continue  # covered by the checkpoint
            if lsn != engine._lsn:
                raise WalCorruptionError(
                    f"WAL gap during recovery: expected lsn {engine._lsn}, "
                    f"found {lsn} -- segments are missing or reordered"
                )
            engine._lsn += 1
            if record.get("type") == "open":
                continue
            if engine._replay(record):
                replayed += 1
            else:
                deduped += 1
        engine._last_checkpoint_lsn = min(engine._last_checkpoint_lsn, engine._lsn)
        engine.recovery_info = {
            "replayed": replayed,
            "deduped": deduped,
            "truncated_bytes": truncated_bytes,
            "checkpoints_skipped": skipped,
            "checkpoint_lsn": start_lsn,
        }
        if OBS.enabled:
            OBS.metrics.counter("workflow.recovery.replayed").inc(replayed)
            OBS.metrics.counter("workflow.recovery.deduped").inc(deduped)
            OBS.metrics.counter("workflow.recovery.truncated_bytes").inc(
                truncated_bytes
            )
            OBS.metrics.counter("workflow.recovery.runs").inc()
        return engine

    def _replay(self, record: Dict[str, object]) -> bool:
        """Check one journaled transition, then ``_apply`` it.

        Returns False when the record was deduplicated (its workflow is
        already terminal / already submitted).  Start decisions re-consult
        the injector so the PRNG streams advance exactly as they did
        live; a disagreement with the journaled outcome is corruption.
        """
        kind = record["type"]
        if kind not in EVENT_TYPES:
            raise WalCorruptionError(f"unknown WAL record type {kind!r}")
        wf_id = int(record["wf"])
        workflow = self.workflows.get(wf_id)
        if kind == "submitted":
            if workflow is not None:
                return False
        elif workflow is None:
            raise WalCorruptionError(
                f"WAL record {record['lsn']} references unknown workflow "
                f"{wf_id}: its submission record is missing"
            )
        elif workflow.terminal:
            return False  # exactly-once: completed work is never redone
        elif kind in ("started", "stuck", "crashed"):
            at = record["at"]
            crash_fired = self._injector.should_fire(CRASH_POINT, at)
            if crash_fired != (kind == "crashed"):
                raise WalCorruptionError(
                    f"replayed crash decision for workflow {wf_id} diverges "
                    "from the journal: the log was written under a "
                    "different fault plan or seed"
                )
            if not crash_fired:
                stuck_fired = self._injector.should_fire(STUCK_POINT, at)
                if stuck_fired != (kind == "stuck"):
                    raise WalCorruptionError(
                        f"replayed stuck decision for workflow {wf_id} "
                        "diverges from the journal: the log was written "
                        "under a different fault plan or seed"
                    )
            if not self._pending or self._pending[0] is not workflow:
                raise WalCorruptionError(
                    f"WAL record {record['lsn']}: workflow {wf_id} is not "
                    "at the head of the pending queue"
                )
        self._apply(record)
        return True

    # ------------------------------------------------------------------
    # Ledger introspection
    # ------------------------------------------------------------------

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def lsn(self) -> int:
        """Log sequence number of the next record to be appended."""
        return self._lsn

    def wal_stats(self) -> Dict[str, int]:
        return {
            "lsn": self._lsn,
            "records_appended": self._wal.records_appended,
            "segments": self._wal.segment_count,
            "last_checkpoint_lsn": self._last_checkpoint_lsn,
        }

    def submitted_counts(self) -> Dict[Tuple[str, str, int], int]:
        """Multiset of ``(database_id, kind, submitted_at)`` over every
        known workflow -- what a submission driver compares against its
        schedule to resubmit idempotently after recovery."""
        counts: Dict[Tuple[str, str, int], int] = {}
        for workflow in self.workflows.values():
            key = (
                workflow.database_id,
                workflow.kind.value,
                workflow.submitted_at,
            )
            counts[key] = counts.get(key, 0) + 1
        return counts

    def read_ledger(self) -> List[Dict[str, object]]:
        """Every record currently in the WAL (no repair), oldest first."""
        records, _ = read_log(self._directory, repair=False)
        return records


def terminal_record_counts(
    records: List[Dict[str, object]],
) -> Dict[int, int]:
    """Terminal (crashed/succeeded/failed) records per workflow id -- the
    exactly-once audit: a clean ledger has at most one per id."""
    counts: Dict[int, int] = {}
    for record in records:
        if record.get("type") in TERMINAL_EVENTS:
            wf = int(record["wf"])
            counts[wf] = counts.get(wf, 0) + 1
    return counts
