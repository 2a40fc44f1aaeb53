"""Tests for the durable event-sourced control plane
(``repro/controlplane/durability/``).

The center of gravity is the exactly-once recovery property: crash the
durable engine after *any* WAL record, under any crash flavour (nothing
written / torn record / corrupt tail), and recovery plus a resumed driver
must converge to a final state byte-identical to an uninterrupted run --
no workflow executed twice, none lost.  Around that: the WAL record
format (torn-tail truncation, single-byte corruption detection, segment
rotation), checkpoint fallback, journal-before-apply, and the end-to-end
kill-mid-day chaos scenario.
"""

import json
import random

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.controlplane import (
    DiagnosticsRunner,
    DurableWorkflowEngine,
    WorkflowEngine,
    WorkflowKind,
    WorkflowState,
)
from repro.controlplane.durability import (
    CHECKPOINT_VERSION,
    CORRUPT_FAULT_POINT,
    CRASH_FAULT_POINT,
    TORN_FAULT_POINT,
    WriteAheadLog,
    checkpoint_paths,
    encode_record,
    load_latest_checkpoint,
    read_log,
    segment_paths,
    terminal_record_counts,
    write_checkpoint,
)
from repro.controlplane.workflows import CRASH_POINT, STUCK_POINT
from repro.errors import (
    ControlPlaneCrashError,
    WalCorruptionError,
    WalError,
    WorkflowError,
)
from repro.experiments.crash_recovery import _drive
from repro.faults import FaultInjector, FaultPlan, FaultSpec, chaos
from repro.faults.runtime import FAULTS
from repro.storage.atomic import read_sealed_document

RECORDS = [
    {"type": "submitted", "wf": 0, "kind": "proactive_resume", "db": "db-0",
     "at": 0, "duration_s": 45, "lsn": 1},
    {"type": "started", "wf": 0, "at": 30, "lsn": 2},
    {"type": "succeeded", "wf": 0, "at": 90, "lsn": 3},
]


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


# ----------------------------------------------------------------------
# WAL format
# ----------------------------------------------------------------------


class TestWriteAheadLog:
    def test_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for record in RECORDS:
            wal.append(record)
        wal.close()
        records, truncated = read_log(tmp_path)
        assert records == RECORDS
        assert truncated == 0

    def test_append_after_reopen_extends_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(RECORDS[0])
        wal.close()
        wal = WriteAheadLog(tmp_path)
        wal.append(RECORDS[1])
        wal.close()
        records, _ = read_log(tmp_path)
        assert records == RECORDS[:2]
        assert len(segment_paths(tmp_path)) == 1

    def test_segment_rotation(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_max_bytes=64)
        for i in range(10):
            wal.append({"type": "submitted", "wf": i, "lsn": i})
        wal.close()
        assert len(segment_paths(tmp_path)) > 2
        records, truncated = read_log(tmp_path)
        assert [r["wf"] for r in records] == list(range(10))
        assert truncated == 0

    def test_torn_tail_truncated_and_repaired(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for record in RECORDS:
            wal.append(record)
        wal.close()
        path = segment_paths(tmp_path)[0]
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # tear the last record mid-payload
        records, truncated = read_log(tmp_path, repair=True)
        assert records == RECORDS[:2]
        assert truncated == len(encode_record(RECORDS[2])) - 7
        # The repair truncated the file: a fresh read is clean, and a
        # reopened log appends after the surviving prefix.
        records, truncated = read_log(tmp_path)
        assert records == RECORDS[:2] and truncated == 0
        wal = WriteAheadLog(tmp_path)
        wal.append(RECORDS[2])
        wal.close()
        assert read_log(tmp_path)[0] == RECORDS

    def test_corruption_before_tail_segment_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_max_bytes=1)  # every record rotates
        for record in RECORDS:
            wal.append(record)
        wal.close()
        first = segment_paths(tmp_path)[0]
        raw = bytearray(first.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        first.write_bytes(bytes(raw))
        with pytest.raises(WalCorruptionError):
            read_log(tmp_path)

    def test_append_on_closed_log_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.close()
        with pytest.raises(WalError):
            wal.append(RECORDS[0])

    def test_injected_crash_writes_nothing(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(RECORDS[0])
        plan = FaultPlan.of(FaultSpec(CRASH_FAULT_POINT, probability=1.0))
        with chaos(plan):
            with pytest.raises(ControlPlaneCrashError):
                wal.append(RECORDS[1])
        wal.close()
        assert read_log(tmp_path) == ([RECORDS[0]], 0)

    @pytest.mark.parametrize("point", [TORN_FAULT_POINT, CORRUPT_FAULT_POINT])
    def test_injected_torn_and_corrupt_tails_truncate(self, tmp_path, point):
        wal = WriteAheadLog(tmp_path)
        wal.append(RECORDS[0])
        plan = FaultPlan.of(FaultSpec(point, probability=1.0))
        with chaos(plan):
            with pytest.raises(ControlPlaneCrashError):
                wal.append(RECORDS[1])
        wal.close()
        records, truncated = read_log(tmp_path, repair=True)
        assert records == [RECORDS[0]]
        assert truncated > 0


class TestWalSingleByteCorruption:
    """Flip any single byte of a persisted segment: replay must never
    surface a wrong record -- it either returns a clean prefix of the
    original records (tail-segment damage) or raises
    ``WalCorruptionError`` (damage before the tail segment)."""

    def _written(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for record in RECORDS:
            wal.append(record)
        wal.close()
        path = segment_paths(tmp_path)[0]
        return path, path.read_bytes()

    def test_every_position_low_bit_flip_yields_clean_prefix(self, tmp_path):
        path, raw = self._written(tmp_path)
        bad = []
        for i in range(len(raw)):
            corrupt = bytearray(raw)
            corrupt[i] ^= 0x01
            path.write_bytes(bytes(corrupt))
            records, _ = read_log(tmp_path, repair=False)
            if records != RECORDS[: len(records)]:
                bad.append(i)
        assert bad == [], f"byte flips at {bad} surfaced a wrong record"

    def test_sampled_byte_and_mask_flips_yield_clean_prefix(self, tmp_path):
        path, raw = self._written(tmp_path)
        rng = random.Random(20260809)
        for _ in range(300):
            position, mask = rng.randrange(len(raw)), rng.randrange(1, 256)
            corrupt = bytearray(raw)
            corrupt[position] ^= mask
            path.write_bytes(bytes(corrupt))
            records, _ = read_log(tmp_path, repair=False)
            assert records == RECORDS[: len(records)], (
                f"flip at byte {position} with mask {mask:#x} surfaced a "
                "wrong record"
            )


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------


class TestCheckpoints:
    STATE = {"config": {"seed": 0}, "next_id": 3, "workflows": []}

    def test_round_trip(self, tmp_path):
        write_checkpoint(tmp_path, self.STATE, last_lsn=17)
        document, skipped = load_latest_checkpoint(tmp_path)
        assert document["state"] == self.STATE
        assert document["last_lsn"] == 17
        assert skipped == 0

    def test_empty_directory(self, tmp_path):
        assert load_latest_checkpoint(tmp_path) == (None, 0)

    def test_keeps_two_generations(self, tmp_path):
        for lsn in (10, 20, 30):
            write_checkpoint(tmp_path, self.STATE, last_lsn=lsn)
        paths = checkpoint_paths(tmp_path)
        assert [p.name for p in paths] == [
            "checkpoint-000000000020.json",
            "checkpoint-000000000030.json",
        ]

    def test_corrupt_latest_falls_back_to_previous(self, tmp_path):
        write_checkpoint(tmp_path, self.STATE, last_lsn=10)
        newest = write_checkpoint(tmp_path, self.STATE, last_lsn=20)
        raw = bytearray(newest.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        newest.write_bytes(bytes(raw))
        document, skipped = load_latest_checkpoint(tmp_path)
        assert document["last_lsn"] == 10
        assert skipped == 1


class TestCheckpointByteFlips:
    """The sealed-document codec (``repro.storage.atomic``) must catch
    every single-byte corruption of a persisted checkpoint: flip any byte,
    and the read either raises ``WalError`` or -- for flips that do not
    survive JSON canonicalization, e.g. whitespace-to-whitespace --
    parses back to exactly the original document."""

    def _written(self, tmp_path):
        path = write_checkpoint(tmp_path, TestCheckpoints.STATE, last_lsn=17)
        original = read_sealed_document(path, CHECKPOINT_VERSION, WalError)
        return original, path, path.read_bytes()

    def _read(self, path):
        return read_sealed_document(path, CHECKPOINT_VERSION, WalError)

    def test_every_position_low_bit_flip_caught(self, tmp_path):
        original, path, raw = self._written(tmp_path)
        undetected = []
        for i in range(len(raw)):
            corrupt = bytearray(raw)
            corrupt[i] ^= 0x01
            path.write_bytes(bytes(corrupt))
            try:
                loaded = self._read(path)
            except WalError:
                continue
            if loaded != original:
                undetected.append(i)
        assert undetected == [], (
            f"byte flips at {undetected} yielded a wrong checkpoint "
            "without a WalError"
        )

    def test_sampled_byte_and_mask_flips_caught(self, tmp_path):
        original, path, raw = self._written(tmp_path)
        rng = random.Random(20240806)
        for _ in range(300):
            position, mask = rng.randrange(len(raw)), rng.randrange(1, 256)
            corrupt = bytearray(raw)
            corrupt[position] ^= mask
            path.write_bytes(bytes(corrupt))
            try:
                loaded = self._read(path)
            except WalError:
                continue
            assert loaded == original, (
                f"flip at byte {position} with mask {mask:#x} went undetected"
            )


class TestCheckpointCrash:
    """Crashing partway through ``write_checkpoint`` must never destroy
    the previous good document under the same name: the new bytes go to
    a temp file and only an atomic rename makes them visible, so an
    interruption at any step leaves the destination readable and equal
    to the old document, with no stray temp file."""

    NEWER = {"config": {"seed": 0}, "next_id": 4, "workflows": [[1, 2]]}

    def _crash_rewrite(self, tmp_path, monkeypatch, name, crash):
        path = write_checkpoint(tmp_path, TestCheckpoints.STATE, last_lsn=17)
        original = read_sealed_document(path, CHECKPOINT_VERSION, WalError)
        monkeypatch.setattr(f"repro.storage.atomic.os.{name}", crash)
        with pytest.raises(OSError):
            write_checkpoint(tmp_path, self.NEWER, last_lsn=17)
        monkeypatch.undo()
        assert read_sealed_document(path, CHECKPOINT_VERSION, WalError) == original
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_crash_before_rename_keeps_old(self, tmp_path, monkeypatch):
        def killed_replace(src, dst):
            raise OSError("injected: process died before the rename")

        self._crash_rewrite(tmp_path, monkeypatch, "replace", killed_replace)

    def test_crash_in_fsync_keeps_old(self, tmp_path, monkeypatch):
        def killed_fsync(fd):
            raise OSError("injected: device lost before flush completed")

        self._crash_rewrite(tmp_path, monkeypatch, "fsync", killed_fsync)


# ----------------------------------------------------------------------
# Durable engine: journaling and recovery
# ----------------------------------------------------------------------


def stuck_plan(probability=0.3):
    return FaultPlan.of(FaultSpec(STUCK_POINT, probability=probability))


def run_day(engine, seed=0, submissions=25, runner=None):
    """A deterministic mixed workload driven to completion."""
    rng = random.Random(seed)
    runner = runner or DiagnosticsRunner(engine, stuck_after_s=60, max_retries=2)
    kinds = list(WorkflowKind)
    now = 0
    for i in range(submissions):
        engine.submit(rng.choice(kinds), f"db-{i % 7}", now)
        now += rng.choice((10, 30, 50))
        engine.tick(now)
        runner.run_once(now)
    for _ in range(200):
        if engine.drained():
            break
        now += 30
        engine.tick(now)
        runner.run_once(now)
    return now


class TestDurableEngine:
    def test_fresh_directory_required(self, tmp_path):
        engine = DurableWorkflowEngine(tmp_path)
        engine.close()
        with pytest.raises(WalError):
            DurableWorkflowEngine(tmp_path)

    def test_recover_empty_directory_rejected(self, tmp_path):
        with pytest.raises(WalError):
            DurableWorkflowEngine.recover(tmp_path)

    def test_journal_before_apply(self, tmp_path):
        """A journal append that dies leaves the in-memory engine exactly
        as it was: the transition never happened."""
        engine = DurableWorkflowEngine(tmp_path)
        plan = FaultPlan.of(FaultSpec(CRASH_FAULT_POINT, probability=1.0))
        with chaos(plan):
            with pytest.raises(ControlPlaneCrashError):
                engine.submit(WorkflowKind.PROACTIVE_RESUME, "db-0", 0)
        assert engine.workflows == {}
        assert engine.pending_count == 0
        # The engine is still usable once the fault clears.
        engine.submit(WorkflowKind.PROACTIVE_RESUME, "db-0", 0)
        assert engine.pending_count == 1
        engine.close()

    def test_recover_after_close_is_identical(self, tmp_path):
        engine = DurableWorkflowEngine(
            tmp_path, seed=5, plan=stuck_plan(), checkpoint_every=16
        )
        run_day(engine, seed=5)
        live = engine.state_doc()
        engine.close()
        recovered = DurableWorkflowEngine.recover(tmp_path)
        assert canonical(recovered.state_doc()) == canonical(live)

    def test_recover_without_any_checkpoint_replays_all(self, tmp_path):
        engine = DurableWorkflowEngine(
            tmp_path, seed=2, plan=stuck_plan(), checkpoint_every=0
        )
        run_day(engine, seed=2)
        live = engine.state_doc()
        engine._wal.sync()  # the process dies without close()
        recovered = DurableWorkflowEngine.recover(tmp_path)
        assert recovered.recovery_info["checkpoint_lsn"] == 0
        assert recovered.recovery_info["replayed"] > 0
        assert canonical(recovered.state_doc()) == canonical(live)

    def test_checkpoint_plus_suffix_equals_full_replay(self, tmp_path):
        engine = DurableWorkflowEngine(
            tmp_path, seed=9, plan=stuck_plan(), checkpoint_every=16
        )
        run_day(engine, seed=9)
        live = engine.state_doc()
        engine._wal.sync()
        with_ckpt = DurableWorkflowEngine.recover(tmp_path)
        assert with_ckpt.recovery_info["checkpoint_lsn"] > 0
        # Drop the checkpoints: recovery must reach the same state from
        # the WAL alone.
        for path in checkpoint_paths(tmp_path):
            path.unlink()
        full_replay = DurableWorkflowEngine.recover(tmp_path)
        assert canonical(with_ckpt.state_doc()) == canonical(live)
        assert canonical(full_replay.state_doc()) == canonical(live)

    def test_corrupt_newest_checkpoint_degrades_to_longer_replay(self, tmp_path):
        engine = DurableWorkflowEngine(
            tmp_path, seed=4, plan=stuck_plan(), checkpoint_every=8
        )
        run_day(engine, seed=4)
        live = engine.state_doc()
        engine.close()
        newest = checkpoint_paths(tmp_path)[-1]
        raw = bytearray(newest.read_bytes())
        raw[len(raw) // 3] ^= 0x01
        newest.write_bytes(bytes(raw))
        recovered = DurableWorkflowEngine.recover(tmp_path)
        assert recovered.recovery_info["checkpoints_skipped"] == 1
        assert canonical(recovered.state_doc()) == canonical(live)

    def test_replayed_terminal_duplicate_is_deduplicated(self, tmp_path):
        engine = DurableWorkflowEngine(tmp_path, default_duration_s=10)
        engine.submit(WorkflowKind.REACTIVE_RESUME, "db-0", 0)
        engine.tick(0)
        engine.tick(10)  # wf 0 succeeds
        lsn = engine.lsn
        live = engine.state_doc()
        engine.close()
        # A duplicated terminal record (e.g. a buggy writer re-emitting a
        # finished workflow) must not re-execute it on replay.
        wal = WriteAheadLog(tmp_path)
        wal.append({"type": "succeeded", "wf": 0, "at": 10, "lsn": lsn})
        wal.close()
        recovered = DurableWorkflowEngine.recover(tmp_path)
        assert recovered.recovery_info["deduped"] == 1
        assert canonical(recovered.state_doc()) == canonical(live)

    def test_replayed_duplicate_submission_is_deduplicated(self, tmp_path):
        engine = DurableWorkflowEngine(tmp_path)
        engine.submit(WorkflowKind.PROACTIVE_RESUME, "db-0", 0)
        lsn = engine.lsn
        live = engine.state_doc()
        engine.close()
        wal = WriteAheadLog(tmp_path)
        wal.append(
            {"type": "submitted", "wf": 0, "kind": "proactive_resume",
             "db": "db-0", "at": 0, "duration_s": 45, "lsn": lsn}
        )
        wal.close()
        recovered = DurableWorkflowEngine.recover(tmp_path)
        assert recovered.recovery_info["deduped"] == 1
        assert canonical(recovered.state_doc()) == canonical(live)

    def test_fail_on_terminal_workflow_refused(self, tmp_path):
        """Failing a finished workflow is refused before anything is
        journaled, so the live state is the one recovery rebuilds and the
        ledger holds one terminal record per workflow."""
        engine = DurableWorkflowEngine(tmp_path, default_duration_s=10)
        workflow = engine.submit(WorkflowKind.REACTIVE_RESUME, "db-0", 0)
        engine.tick(0)
        engine.tick(10)
        assert workflow.state is WorkflowState.SUCCEEDED
        lsn = engine.lsn
        with pytest.raises(WorkflowError):
            engine.fail(workflow, 20)
        assert engine.lsn == lsn
        live = engine.state_doc()
        engine._wal.sync()  # the process dies without close()
        recovered = DurableWorkflowEngine.recover(tmp_path)
        assert canonical(recovered.state_doc()) == canonical(live)
        terminals = terminal_record_counts(recovered.read_ledger())
        assert all(count <= 1 for count in terminals.values())

    # Each case: submissions before the crafted record, the record, and
    # how many LSNs it skips.
    CRAFTED = {
        "no_submission_record": (1, {"type": "started", "wf": 3}, 0),
        "not_pending_head": (2, {"type": "started", "wf": 1}, 0),
        "unknown_type": (1, {"type": "resumed", "wf": 0}, 0),
        "lsn_gap": (1, {"type": "started", "wf": 0}, 1),
    }

    @pytest.mark.parametrize("case", sorted(CRAFTED))
    def test_crafted_ledger_refused(self, tmp_path, case):
        submissions, record, skip = self.CRAFTED[case]
        engine = DurableWorkflowEngine(tmp_path)
        for i in range(submissions):
            engine.submit(WorkflowKind.PROACTIVE_RESUME, f"db-{i}", 0)
        lsn = engine.lsn
        engine.close()
        wal = WriteAheadLog(tmp_path)
        wal.append({**record, "at": 0, "lsn": lsn + skip})
        wal.close()
        with pytest.raises(WalCorruptionError):
            DurableWorkflowEngine.recover(tmp_path)

    def test_wrong_seed_replay_detected(self, tmp_path):
        """A WAL replayed against mismatched fault-injection state (here:
        a checkpoint from a different PRNG position) is corruption, not a
        silent divergence."""
        engine = DurableWorkflowEngine(
            tmp_path, seed=1, plan=stuck_plan(0.5), checkpoint_every=0
        )
        run_day(engine, seed=1, submissions=40)
        engine.close()
        records, _ = read_log(tmp_path)
        decisions = [r for r in records if r["type"] in ("started", "stuck")]
        assert {r["type"] for r in decisions} == {"started", "stuck"}
        # Flip one journaled start decision; the injector re-consultation
        # during replay must disagree and refuse.
        target = decisions[0]
        flipped = dict(target)
        flipped["type"] = "stuck" if target["type"] == "started" else "started"
        rewritten = [flipped if r is target else r for r in records]
        for path in segment_paths(tmp_path):
            path.unlink()
        for path in checkpoint_paths(tmp_path):
            path.unlink()
        wal = WriteAheadLog(tmp_path)
        for record in rewritten:
            wal.append(record)
        wal.close()
        with pytest.raises(WalCorruptionError):
            DurableWorkflowEngine.recover(tmp_path)

    def test_compact_drops_covered_segments(self, tmp_path):
        engine = DurableWorkflowEngine(
            tmp_path, segment_max_bytes=256, checkpoint_every=0
        )
        run_day(engine, seed=0, submissions=30)
        assert engine.wal_stats()["segments"] > 3
        engine.checkpoint()
        before = engine.wal_stats()["segments"]
        removed = engine.compact()
        assert removed > 0
        assert engine.wal_stats()["segments"] == before - removed
        live = engine.state_doc()
        engine.close()
        recovered = DurableWorkflowEngine.recover(tmp_path)
        assert canonical(recovered.state_doc()) == canonical(live)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_durable_engine_steps_like_in_memory_engine(tmp_path, seed):
    """The WAL changes nothing but the disk: driven over one seeded
    schedule with stuck and crash faults plus diagnostics, the in-memory
    and the durable engine agree on the workflows and both queue orders
    after every tick."""
    plan = FaultPlan.of(
        FaultSpec(STUCK_POINT, probability=0.3),
        FaultSpec(CRASH_POINT, probability=0.05),
    )
    memory = WorkflowEngine(
        max_concurrent=4, injector=FaultInjector(plan, seed=seed)
    )
    durable = DurableWorkflowEngine(
        tmp_path, max_concurrent=4, seed=seed, plan=plan, checkpoint_every=10
    )
    engines = (memory, durable)
    runners = [
        DiagnosticsRunner(engine, stuck_after_s=60, max_retries=2)
        for engine in engines
    ]

    def snapshot(engine):
        return (
            dict(engine.workflows),
            [w.workflow_id for w in engine._pending],
            [w.workflow_id for w in engine._running],
        )

    schedule = synthetic_schedule(seed, entries=40)
    index = 0
    for now in range(0, 3000, 30):
        while index < len(schedule) and schedule[index][0] <= now:
            _, kind, db = schedule[index]
            for engine in engines:
                engine.submit(WorkflowKind(kind), db, now)
            index += 1
        for engine, runner in zip(engines, runners):
            runner.run_once(now)
            engine.tick(now)
        assert snapshot(memory) == snapshot(durable)
    assert durable.drained()
    assert runners[0].incidents == runners[1].incidents
    assert any(w.retries for w in durable.workflows.values())
    assert any(
        w.state is WorkflowState.FAILED and w.retries == 0
        for w in durable.workflows.values()
    )
    durable.close()


# ----------------------------------------------------------------------
# Crash after every Nth record: the exactly-once property
# ----------------------------------------------------------------------


class _CrashOnNthAppend:
    """A stand-in injector for ``FAULTS``: fires one WAL fault point on
    exactly the n-th append, deterministically."""

    def __init__(self, point: str, nth: int):
        self.point = point
        self.remaining = nth

    def should_fire(self, point, now=None):
        if point != self.point:
            return False
        self.remaining -= 1
        return self.remaining == 0


def synthetic_schedule(seed, entries=24):
    rng = random.Random(f"schedule:{seed}")
    kinds = [kind.value for kind in WorkflowKind]
    return sorted(
        (rng.randrange(0, 1500), rng.choice(kinds), f"db-{rng.randrange(5)}")
        for _ in range(entries)
    )


def drive_schedule(engine, schedule, start_now=0, skip=None, progress=None):
    _drive(
        engine,
        DiagnosticsRunner(engine, stuck_after_s=60, max_retries=2),
        schedule,
        start_now,
        max(t for t, _, _ in schedule),
        tick_s=30,
        skip=skip,
        progress=progress,
    )


MODE_POINTS = (CRASH_FAULT_POINT, TORN_FAULT_POINT, CORRUPT_FAULT_POINT)


class TestCrashAfterEveryNthRecord:
    @hsettings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        nth=st.integers(min_value=2, max_value=80),
        point=st.sampled_from(MODE_POINTS),
    )
    def test_recovered_state_equals_uninterrupted_run(
        self, tmp_path_factory, seed, nth, point
    ):
        root = tmp_path_factory.mktemp("crashnth")
        schedule = synthetic_schedule(seed)
        engine_args = dict(
            max_concurrent=4,
            seed=seed,
            plan=stuck_plan(0.35),
            checkpoint_every=10,
        )

        reference = DurableWorkflowEngine(root / "ref", **engine_args)
        drive_schedule(reference, schedule)
        final = reference.state_doc()
        reference.close()

        victim = DurableWorkflowEngine(root / "vic", **engine_args)
        progress = {}
        previous = (FAULTS.enabled, FAULTS.injector)
        crashed = False
        try:
            FAULTS.enabled, FAULTS.injector = True, _CrashOnNthAppend(point, nth)
            drive_schedule(victim, schedule, progress=progress)
        except ControlPlaneCrashError:
            crashed = True
        finally:
            FAULTS.enabled, FAULTS.injector = previous

        if not crashed:
            # nth exceeded the run's total appends: the run is simply an
            # uninterrupted one and must already match.
            assert canonical(victim.state_doc()) == canonical(final)
            victim.close()
            return

        # Journal-before-apply: the dead process's in-memory state (minus
        # the injector streams, which advanced on the lost consultation)
        # is exactly what recovery rebuilds from disk.
        live = {k: v for k, v in victim.state_doc().items() if k != "injector"}
        recovered = DurableWorkflowEngine.recover(root / "vic")
        rebuilt = {
            k: v for k, v in recovered.state_doc().items() if k != "injector"
        }
        assert canonical(rebuilt) == canonical(live)

        # Finish the day from the crashed tick; the end state must be
        # byte-identical to the uninterrupted run -- including the
        # injector, whose re-decided consultations land it on the same
        # stream positions.
        drive_schedule(
            recovered,
            schedule,
            start_now=progress["now"],
            skip=dict(recovered.submitted_counts()),
        )
        assert canonical(recovered.state_doc()) == canonical(final)

        # Exactly-once over the full surviving ledger.
        terminals = terminal_record_counts(recovered.read_ledger())
        assert all(count == 1 for count in terminals.values())
        assert set(terminals) == set(recovered.workflows)
        assert all(w.terminal for w in recovered.workflows.values())
        recovered.close()


# ----------------------------------------------------------------------
# The end-to-end chaos scenario (smoke; CI runs the CLI flavour)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["crash", "torn", "corrupt"])
def test_crash_recovery_scenario(mode):
    from repro.experiments.common import ExperimentScale
    from repro.experiments.crash_recovery import run_crash_recovery

    result = run_crash_recovery(
        scale=ExperimentScale(n_databases=30, eval_days=1),
        crash_mode=mode,
        seed=11,
    )
    assert result.crashed
    assert result.reports_identical
    assert result.ledgers_identical
    assert result.exactly_once
    assert result.none_lost
    assert result.ok
    assert "byte-identical ok" in result.table()


def test_scenario_report_counts_sum(tmp_path):
    """The engine-derived KPI report counts every workflow exactly once
    across kinds and outcomes."""
    from repro.experiments.crash_recovery import control_plane_report

    engine = DurableWorkflowEngine(tmp_path, plan=stuck_plan(), seed=3)
    run_day(engine, seed=3)
    report = control_plane_report(engine)
    assert report["workflows"] == len(engine.workflows)
    assert report["pending"] == 0 and report["running"] == 0
    total = sum(k["submitted"] for k in report["kinds"].values())
    assert total == len(engine.workflows)
    done = sum(
        k["succeeded"] + k["failed"] for k in report["kinds"].values()
    )
    assert done == sum(1 for w in engine.workflows.values() if w.terminal)
    engine.close()


def test_workflow_state_values_cover_ledger():
    """Every state the engine can journal has a WorkflowState round trip
    (guards the record switch in ``WorkflowEngine._apply``)."""
    for state in WorkflowState:
        assert WorkflowState(state.value) is state
