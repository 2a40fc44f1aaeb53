"""Crash-safe file replacement: temp file + fsync + atomic rename.

Control-plane checkpoints are whole documents that a reader must see
either entirely or not at all.  A naive ``write_text`` truncates the
destination first, so a crash mid-write leaves a half-written file that
the read path then rejects as corrupt -- losing the previous good copy.
The standard fix, implemented here once:

1. write the new bytes to a temporary file *in the same directory* (so
   the final rename never crosses a filesystem boundary);
2. flush and ``os.fsync`` the temp file so the data is on stable storage
   before it can become visible under the destination name;
3. ``os.replace`` the temp file over the destination -- atomic on POSIX
   and Windows: readers see the old document or the new one, never a mix;
4. best-effort fsync of the containing directory so the rename itself
   survives a power cut (skipped where directories cannot be opened).

A crash at any step leaves the destination untouched; the stray temp
file, when one survives, is ignored by readers and overwritten by the
next attempt.

Checkpoints also go through one checksummed document codec:
:func:`seal_document` stamps a JSON object with ``file_checksum``, the
crc32 of every other field as compact sorted-key JSON, and
:func:`read_sealed_document` parses a file back and checks it is an
object of the expected ``version`` whose checksum matches, so any
single-byte corruption of the file fails the read.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any, Dict, Type, Union

from repro.errors import StorageError


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Atomically replace ``path`` with ``data`` (see module docstring)."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> None:
    """Atomically replace ``path`` with ``text``."""
    atomic_write_bytes(path, text.encode(encoding))


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry; best-effort (not all platforms allow
    opening directories)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _document_crc(document: Dict[str, Any]) -> int:
    body = {k: v for k, v in document.items() if k != "file_checksum"}
    payload = json.dumps(body, separators=(",", ":"), sort_keys=True)
    return zlib.crc32(payload.encode("utf-8"))


def seal_document(document: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp ``document`` with its ``file_checksum``; returns it."""
    document["file_checksum"] = _document_crc(document)
    return document


def read_sealed_document(
    path: Union[str, Path], version: int, error: Type[StorageError]
) -> Dict[str, Any]:
    """Load a sealed document, raising ``error`` unless it parses to an
    object of ``version`` whose ``file_checksum`` matches."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # includes UnicodeDecodeError
        raise error(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise error(f"{path} does not hold an object")
    if document.get("version") != version:
        raise error(f"{path}: unsupported version {document.get('version')!r}")
    if document.get("file_checksum") != _document_crc(document):
        raise error(f"{path} fails its file checksum")
    return document
