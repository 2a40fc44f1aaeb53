"""Periodic full-state checkpoints for the durable workflow engine.

A checkpoint is one JSON document holding everything recovery needs to
rebuild the engine *without* replaying the WAL from its first record:
the workflow table, both queue orders, the fault injector's PRNG streams
and ledger, and the log sequence number (LSN) of the last WAL record the
checkpoint covers.  Recovery loads the newest valid checkpoint and
replays only the WAL suffix past its LSN.

Checkpoints are written crash-safely (same-directory temp file + fsync +
atomic rename, :mod:`repro.storage.atomic`) and carry a whole-document
crc32 through the sealed-document codec of the same module.  A corrupt
checkpoint is skipped in favour of the previous one -- the two newest are
retained for exactly that fallback -- degrading recovery to a longer
replay, never to data loss.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import WalError
from repro.storage.atomic import (
    atomic_write_text,
    read_sealed_document,
    seal_document,
)

#: Checkpoint format version, bumped on layout changes.
CHECKPOINT_VERSION = 1

#: How many checkpoint generations survive on disk.
KEEP_CHECKPOINTS = 2

_NAME = re.compile(r"^checkpoint-(\d{12})\.json$")


def checkpoint_paths(directory: Union[str, Path]) -> List[Path]:
    """Existing checkpoint files, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(p for p in directory.iterdir() if _NAME.match(p.name))


def write_checkpoint(
    directory: Union[str, Path], state: Dict[str, object], last_lsn: int
) -> Path:
    """Persist ``state`` as the checkpoint covering WAL records
    ``[0, last_lsn)``; prunes generations beyond :data:`KEEP_CHECKPOINTS`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    document = seal_document(
        {"version": CHECKPOINT_VERSION, "last_lsn": last_lsn, "state": state}
    )
    path = directory / f"checkpoint-{last_lsn:012d}.json"
    atomic_write_text(path, json.dumps(document))
    for stale in checkpoint_paths(directory)[:-KEEP_CHECKPOINTS]:
        try:
            stale.unlink()
        except OSError:
            pass
    return path


def load_latest_checkpoint(
    directory: Union[str, Path],
) -> Tuple[Optional[Dict[str, object]], int]:
    """The newest checkpoint that passes validation, or ``None``.

    Returns ``(document, skipped)`` where ``skipped`` counts newer
    checkpoints that failed validation and were passed over.
    """
    skipped = 0
    for path in reversed(checkpoint_paths(directory)):
        try:
            document = read_sealed_document(path, CHECKPOINT_VERSION, WalError)
            return document, skipped
        except (WalError, OSError):
            skipped += 1
    return None, skipped
