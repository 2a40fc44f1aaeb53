"""Durability of the database history (Sections 3.3 and 5).

Two requirements from the paper:

* "if a database moves from one compute node to another to balance the
  load, its history must move with it" -- trivially satisfied because the
  history lives inside the tenant database, but the move itself needs a
  serialization format;
* "we leverage the established backup and restore mechanisms of Azure SQL
  Database to tackle data loss" -- snapshots with checksums stand in for
  those mechanisms.

Snapshots are plain JSON so they survive process restarts and can be
inspected.  Two CRC-style checksums detect corruption: the event checksum
travels with the in-memory snapshot and is verified on every restore; the
file checksum covers the *entire* persisted document (version, database
id, and events), so any single-byte corruption of a snapshot file --
including fields the event checksum does not cover -- fails the read.

Fault points (consulted only while ``repro.faults`` is armed):

* ``storage.snapshot.corrupt`` -- the save path corrupts the persisted
  payload (a bit flip on the backup medium); the checksum must catch it
  on read.
* ``storage.snapshot.restore`` -- the restore path is unavailable (the
  backup store is down) and raises :class:`StorageError`.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from repro.errors import StorageError
from repro.faults.runtime import FAULTS
from repro.storage.atomic import (
    atomic_write_text,
    read_sealed_document,
    seal_document,
)
from repro.storage.history import HistoryStore
from repro.types import EventType, HistoryEvent

#: Snapshot format version, bumped on layout changes (2: file checksum
#: covering the whole document).
SNAPSHOT_VERSION = 2

#: Fault point: the save path corrupts the persisted document.
CORRUPT_FAULT_POINT = "storage.snapshot.corrupt"

#: Fault point: the restore path (backup store) is unavailable.
RESTORE_FAULT_POINT = "storage.snapshot.restore"


@dataclass(frozen=True)
class HistorySnapshot:
    """A point-in-time copy of one database's history."""

    database_id: str
    events: Tuple[HistoryEvent, ...]
    checksum: int
    version: int = SNAPSHOT_VERSION

    @property
    def tuple_count(self) -> int:
        return len(self.events)


def _checksum(events: List[Tuple[int, int]]) -> int:
    payload = json.dumps(events, separators=(",", ":")).encode("ascii")
    return zlib.crc32(payload)


def snapshot_history(store: HistoryStore, database_id: str) -> HistorySnapshot:
    """Take a consistent snapshot (backup) of the history store."""
    events = store.all_events()
    raw = [(e.time_snapshot, int(e.event_type)) for e in events]
    return HistorySnapshot(
        database_id=database_id,
        events=tuple(events),
        checksum=_checksum(raw),
    )


def restore_history(snapshot: HistorySnapshot) -> HistoryStore:
    """Rebuild a history store from a snapshot, verifying the checksum.

    Restores are how history follows a database across node moves and how
    data loss is repaired from backups.
    """
    if FAULTS.enabled and FAULTS.injector.should_fire(RESTORE_FAULT_POINT):
        raise StorageError(
            f"injected: backup store unavailable restoring "
            f"{snapshot.database_id!r}"
        )
    raw = [(e.time_snapshot, int(e.event_type)) for e in snapshot.events]
    if _checksum(raw) != snapshot.checksum:
        raise StorageError(
            f"snapshot of {snapshot.database_id!r} fails its checksum: "
            "refusing to restore corrupt history"
        )
    store = HistoryStore()
    loaded = store.bulk_load(snapshot.events)
    if loaded != len(snapshot.events):
        raise StorageError(
            f"snapshot of {snapshot.database_id!r} contains duplicate "
            "timestamps: the source table violated its unique constraint"
        )
    return store


# ---------------------------------------------------------------------------
# File round trip (the "established backup mechanisms")
# ---------------------------------------------------------------------------


def write_snapshot(snapshot: HistorySnapshot, path: Path) -> None:
    """Persist a snapshot as JSON with a whole-document checksum.

    The write is crash-safe: the document lands in a same-directory temp
    file that is fsynced and atomically renamed over ``path``
    (:func:`repro.storage.atomic.atomic_write_text`), so a crash mid-write
    can never leave a half-written snapshot where a good one used to be.
    """
    document = seal_document({
        "version": snapshot.version,
        "database_id": snapshot.database_id,
        "checksum": snapshot.checksum,
        "events": [
            [e.time_snapshot, int(e.event_type)] for e in snapshot.events
        ],
    })
    if FAULTS.enabled and FAULTS.injector.should_fire(CORRUPT_FAULT_POINT):
        # Bit rot on the backup medium: corrupt the payload *after* the
        # checksum was computed so the read path must catch it.
        if document["events"]:
            document["events"][-1][0] += 1
        else:
            document["checksum"] += 1
    atomic_write_text(path, json.dumps(document))


def read_snapshot(path: Path) -> HistorySnapshot:
    """Load a snapshot written by :func:`write_snapshot`.

    Any corruption of the persisted file -- unparsable JSON, a missing
    field, or a payload that fails the whole-document checksum -- raises
    :class:`StorageError` rather than yielding a silently wrong snapshot.
    """
    document = read_sealed_document(path, SNAPSHOT_VERSION, StorageError)
    try:
        events = tuple(
            HistoryEvent(t, EventType(e)) for t, e in document["events"]
        )
        return HistorySnapshot(
            database_id=document["database_id"],
            events=events,
            checksum=document["checksum"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"snapshot file {path} is malformed: {exc}") from exc


def move_history(
    store: HistoryStore, database_id: str
) -> Tuple[HistorySnapshot, HistoryStore]:
    """Simulate a load-balancing move: snapshot on the source node, restore
    on the target node; returns (snapshot, store-on-new-node)."""
    snapshot = snapshot_history(store, database_id)
    return snapshot, restore_history(snapshot)
