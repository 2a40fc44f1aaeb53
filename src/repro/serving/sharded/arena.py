"""Zero-copy shared-memory login history for the sharded serving tier.

The router builds one :class:`SharedHistoryArena` for the whole fleet: a
CSR layout (``offsets``/``top``/``paused``/``logins``) over
a single ``multiprocessing.shared_memory`` segment.  Workers attach by
name and map the same pages read-only through numpy views -- a worker's
predict or resume-scan request reads login timestamps straight out of
the router's memory, paying zero serialisation and zero copies.

Write discipline (single-writer, many-readers):

* The **router** (the creating process) owns all mutation: pause-state
  flips (:meth:`SharedHistoryArena.set_paused`) and login appends
  (:meth:`SharedHistoryArena.append_login`, bounded by per-database
  ``slack`` capacity reserved at build time).
* An append writes the timestamp *first* and advances ``top`` last, so
  a reader that observes the new ``top`` observes the new login too.
  Every worker read slices the live ``logins[offsets[i] : offsets[i] +
  top[i]]``, so there is no per-database version to bump.
* Workers treat the mapping as read-only; nothing enforces it at the MMU
  level (``shared_memory`` has no read-only attach), the contract is the
  API: attached arenas raise on mutators.

Layout of the segment (all little-endian, offsets in bytes computed from
the spec -- the segment itself carries no header, the picklable
:class:`ArenaSpec` travels to workers over the spawn pipe instead)::

    offsets   int64[n + 1]   CSR base of each database's login slots
    top       int64[n]       live login count (<= capacity per database)
    paused    uint8[n]       1 = physically paused
    logins    int64[L]       login timestamps, ascending per database

CPython's ``resource_tracker`` would unlink the segment when the *first*
attaching child exits (bpo-38119); :func:`_attach` unregisters the
attached segment from the tracker so only the owning router unlinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError

#: Extra login slots reserved per database at build time so the router
#: can append live logins without rebuilding the arena.
DEFAULT_SLACK = 8


@dataclass(frozen=True)
class ArenaSpec:
    """Everything a worker needs to map the arena: the segment name plus
    the shapes and the (region, database-id) directory.  Picklable, so it
    rides the spawn bootstrap pipe to worker processes."""

    name: str
    databases: int
    login_capacity: int
    #: region -> [start, end) index range into the database axis.
    regions: Tuple[Tuple[str, int, int], ...]
    #: database ids, concatenated in region order (length ``databases``).
    database_ids: Tuple[str, ...]


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting unlink duty.

    Python 3.13 grew ``track=False`` for exactly this case.  On older
    runtimes, attaching *registers* the segment with the resource
    tracker (bpo-38119) -- but spawn children inherit the router's
    tracker process and its cache is a set, so the duplicate register is
    idempotent and the router's eventual ``unlink`` removes the entry
    exactly once.  Do NOT "fix" the duplicate with a manual
    ``resource_tracker.unregister`` here: through the shared tracker
    that would erase the router's own registration and leak the segment
    on crash.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - runtime-version dependent
        return shared_memory.SharedMemory(name=name)


class RegionView:
    """A read-only, dict-like view of one region's databases.

    Speaks the mapping subset :class:`~repro.serving.server.
    PredictionServer` uses for its fleet registry (``get`` /
    ``__getitem__`` / ``items`` yielding ``(logins, paused)``) -- so a
    worker serves straight off the arena with the same code paths as the
    in-process registry.  Iteration order is
    the build-time registration order, which keeps resume-scan orderings
    identical between the sharded and in-process paths.
    """

    __slots__ = ("_arena", "region", "_start", "_end", "_index")

    def __init__(self, arena: "SharedHistoryArena", region: str, start: int, end: int):
        self._arena = arena
        self.region = region
        self._start = start
        self._end = end
        ids = arena.spec.database_ids
        self._index = {ids[i]: i for i in range(start, end)}

    def __len__(self) -> int:
        return self._end - self._start

    def __contains__(self, database_id: str) -> bool:
        return database_id in self._index

    def _entry(self, i: int) -> Tuple[np.ndarray, bool]:
        a = self._arena
        base = int(a.offsets[i])
        top = int(a.top[i])
        return a.logins[base : base + top], bool(a.paused[i])

    def __getitem__(self, database_id: str) -> Tuple[np.ndarray, bool]:
        return self._entry(self._index[database_id])

    def get(
        self, database_id: str, default=None
    ) -> Optional[Tuple[np.ndarray, bool]]:
        i = self._index.get(database_id)
        return default if i is None else self._entry(i)

    def items(self) -> Iterator[Tuple[str, Tuple[np.ndarray, bool]]]:
        ids = self._arena.spec.database_ids
        for i in range(self._start, self._end):
            yield ids[i], self._entry(i)


class SharedHistoryArena:
    """The shared CSR login store; one per sharded serving deployment.

    Build with :meth:`build` (router side, owns the segment and may
    mutate); attach with :meth:`attach` (worker side, read-only).  ``close``
    detaches; ``unlink`` (owner only) frees the segment.
    """

    def __init__(
        self,
        spec: ArenaSpec,
        shm: shared_memory.SharedMemory,
        owner: bool,
    ):
        self.spec = spec
        self._shm = shm
        self.owner = owner
        n = spec.databases
        capacity = spec.login_capacity
        buf = shm.buf
        cursor = 0

        def carve(count: int, dtype) -> np.ndarray:
            nonlocal cursor
            arr = np.ndarray((count,), dtype=dtype, buffer=buf, offset=cursor)
            cursor += arr.nbytes
            return arr

        self.offsets = carve(n + 1, np.int64)
        self.top = carve(n, np.int64)
        self.paused = carve(n, np.uint8)
        self.logins = carve(capacity, np.int64)
        self._region_range = {
            region: (start, end) for region, start, end in spec.regions
        }
        self._db_index: Dict[Tuple[str, str], int] = {}
        ids = spec.database_ids
        for region, start, end in spec.regions:
            for i in range(start, end):
                self._db_index[(region, ids[i])] = i

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def _required_bytes(databases: int, login_capacity: int) -> int:
        return 8 * (databases + 1) + 8 * databases + databases + 8 * login_capacity

    @classmethod
    def build(
        cls,
        fleet: Mapping[str, Sequence[Tuple[str, Sequence[int], bool]]],
        slack: int = DEFAULT_SLACK,
        name: Optional[str] = None,
    ) -> "SharedHistoryArena":
        """Create the segment from ``region -> [(database_id, logins,
        paused), ...]`` (ordering preserved -- it becomes the resume-scan
        iteration order).  ``slack`` reserves append capacity per
        database."""
        if slack < 0:
            raise ConfigError("arena slack must be non-negative")
        regions = []
        database_ids = []
        counts = []
        login_chunks = []
        paused_flags = []
        cursor = 0
        for region, entries in fleet.items():
            start = cursor
            for database_id, logins, paused in entries:
                arr = np.asarray(logins, dtype=np.int64)
                if arr.ndim != 1:
                    raise ConfigError(
                        f"logins for {database_id!r} must be one-dimensional"
                    )
                database_ids.append(database_id)
                counts.append(len(arr))
                login_chunks.append(arr)
                paused_flags.append(paused)
                cursor += 1
            regions.append((region, start, cursor))
        n = cursor
        counts_arr = np.asarray(counts, dtype=np.int64)
        capacities = counts_arr + slack
        total = int(capacities.sum()) if n else 0
        spec_name = name
        shm = shared_memory.SharedMemory(
            create=True,
            size=max(1, cls._required_bytes(n, total)),
            **({"name": spec_name} if spec_name else {}),
        )
        spec = ArenaSpec(
            name=shm.name,
            databases=n,
            login_capacity=total,
            regions=tuple(regions),
            database_ids=tuple(database_ids),
        )
        arena = cls(spec, shm, owner=True)
        arena.offsets[0] = 0
        if n:
            np.cumsum(capacities, out=arena.offsets[1:])
            arena.top[:] = counts_arr
            arena.paused[:] = np.asarray(paused_flags, dtype=np.uint8)
            for i, chunk in enumerate(login_chunks):
                base = int(arena.offsets[i])
                arena.logins[base : base + len(chunk)] = chunk
        return arena

    @classmethod
    def attach(cls, spec: ArenaSpec) -> "SharedHistoryArena":
        """Worker-side mapping of an existing arena (read-only by
        contract; mutators raise)."""
        return cls(spec, _attach(spec.name), owner=False)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def views(self) -> Dict[str, RegionView]:
        """Per-region views suitable for ``PredictionServer.attach_fleet``."""
        return {
            region: RegionView(self, region, start, end)
            for region, start, end in self.spec.regions
        }

    def _index_of(self, region: str, database_id: str) -> int:
        i = self._db_index.get((region, database_id))
        if i is None:
            raise ConfigError(
                f"unknown database {database_id!r} in region {region!r}"
            )
        return i

    def login_view(self, region: str, database_id: str) -> np.ndarray:
        i = self._index_of(region, database_id)
        base = int(self.offsets[i])
        return self.logins[base : base + int(self.top[i])]

    def nbytes(self) -> int:
        return self._shm.size

    # ------------------------------------------------------------------
    # Writes (owner only)
    # ------------------------------------------------------------------

    def _require_owner(self) -> None:
        if not self.owner:
            raise ConfigError(
                "arena is attached read-only; only the creating router "
                "process may mutate it"
            )

    def set_paused(self, region: str, database_id: str, paused: bool) -> None:
        self._require_owner()
        self.paused[self._index_of(region, database_id)] = 1 if paused else 0

    def append_login(self, region: str, database_id: str, ts: int) -> None:
        """Append one login (ascending, deduped on timestamp) into the
        database's slack capacity; advances ``top`` last so readers that
        see the new ``top`` see the new login."""
        self._require_owner()
        i = self._index_of(region, database_id)
        base = int(self.offsets[i])
        top = int(self.top[i])
        if top and ts < int(self.logins[base + top - 1]):
            raise ConfigError(
                f"login {ts} is older than the newest history entry "
                f"{int(self.logins[base + top - 1])} for {database_id!r}"
            )
        if top and ts == int(self.logins[base + top - 1]):
            return
        if base + top >= int(self.offsets[i + 1]):
            raise ConfigError(
                f"database {database_id!r} exhausted its arena slack; "
                f"rebuild the arena with more headroom"
            )
        self.logins[base + top] = ts
        self.top[i] = top + 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (numpy views become invalid)."""
        self.offsets = self.top = None  # type: ignore[assignment]
        self.paused = self.logins = None  # type: ignore[assignment]
        self._shm.close()

    def unlink(self) -> None:
        """Free the segment (owner only; call after every worker exited)."""
        self._require_owner()
        self._shm.unlink()
