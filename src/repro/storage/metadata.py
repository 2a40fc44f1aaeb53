"""The region metadata store ``sys.databases`` (Sections 4 and 7).

Before a database is physically paused, the start of its next predicted
activity is written here (Algorithm 1, line 31).  The proactive resume
operation (Algorithm 5) periodically scans this store for physically paused
databases whose predicted activity starts during the k-th minute from now.
A secondary index on ``start_of_pred_activity`` makes that scan a range
lookup instead of a full scan over the region.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import StorageError
from repro.storage.database import Database
from repro.storage.schema import metadata_schema
from repro.types import NO_PREDICTION_SENTINEL


class DatabaseState(enum.Enum):
    """Lifecycle states of Figure 4 as persisted in ``sys.databases``."""

    RESUMED = "resumed"
    LOGICAL_PAUSE = "logical_pause"
    PHYSICAL_PAUSE = "physical_pause"
    #: Transitional: a reactive resume workflow is in flight.
    RESUMING = "resuming"


@dataclass(frozen=True)
class DatabaseRecord:
    """One row of ``sys.databases``."""

    database_id: str
    state: DatabaseState
    start_of_pred_activity: int
    node_id: Optional[str] = None
    created_at: Optional[int] = None

    @property
    def has_prediction(self) -> bool:
        return self.start_of_pred_activity != NO_PREDICTION_SENTINEL


class MetadataStore:
    """Region-scoped store of per-database state and predictions."""

    TABLE_NAME = "sys.databases"

    def __init__(self, database: Optional[Database] = None):
        if database is None:
            database = Database("control_plane")
        self.database = database
        if self.TABLE_NAME in database:
            self._table = database.table(self.TABLE_NAME)
        else:
            self._table = database.create_table(metadata_schema())
        if "start_of_pred_activity" not in self._table.indexed_columns:
            self._table.create_index("start_of_pred_activity")

    def __len__(self) -> int:
        return self._table.row_count

    # ------------------------------------------------------------------
    # Registration and state transitions
    # ------------------------------------------------------------------

    def register(
        self,
        database_id: str,
        state: DatabaseState = DatabaseState.RESUMED,
        node_id: Optional[str] = None,
        created_at: Optional[int] = None,
    ) -> None:
        """Add a database to the region; raises if already registered."""
        self._table.insert(
            {
                "database_id": database_id,
                "state": state.value,
                "start_of_pred_activity": NO_PREDICTION_SENTINEL,
                "node_id": node_id,
                "created_at": created_at,
            }
        )

    def get(self, database_id: str) -> DatabaseRecord:
        row = self._table.get(database_id)
        if row is None:
            raise StorageError(f"database {database_id!r} is not registered")
        return DatabaseRecord(
            database_id=row["database_id"],
            state=DatabaseState(row["state"]),
            start_of_pred_activity=row["start_of_pred_activity"],
            node_id=row["node_id"],
            created_at=row["created_at"],
        )

    def set_state(self, database_id: str, state: DatabaseState) -> None:
        if not self._table.update_by_key(database_id, {"state": state.value}):
            raise StorageError(f"database {database_id!r} is not registered")

    def record_physical_pause(self, database_id: str, pred_start: int) -> None:
        """Algorithm 1 line 31 (InsertMetadata) + the transition to
        PHYSICAL_PAUSE: persist the start of the next predicted activity."""
        updated = self._table.update_by_key(
            database_id,
            {
                "state": DatabaseState.PHYSICAL_PAUSE.value,
                "start_of_pred_activity": pred_start,
            },
        )
        if not updated:
            raise StorageError(f"database {database_id!r} is not registered")

    def clear_prediction(self, database_id: str) -> None:
        """Reset the stored prediction (on resume)."""
        self._table.update_by_key(
            database_id, {"start_of_pred_activity": NO_PREDICTION_SENTINEL}
        )

    def set_node(self, database_id: str, node_id: Optional[str]) -> None:
        if not self._table.update_by_key(database_id, {"node_id": node_id}):
            raise StorageError(f"database {database_id!r} is not registered")

    # ------------------------------------------------------------------
    # Algorithm 5's scan
    # ------------------------------------------------------------------

    def databases_to_prewarm(self, now: int, prewarm_s: int, period_s: int) -> List[str]:
        """Physically paused databases whose predicted activity starts within
        the closed range ``[now + k, now + k + period]`` -- the SELECT of
        Algorithm 5 -- ordered by ``(start_of_pred_activity, database_id)``.

        The scan runs over the secondary index on ``start_of_pred_activity``;
        the no-prediction sentinel (0) never qualifies because ``now + k`` is
        strictly positive for any simulated time point.
        """
        lo = now + prewarm_s
        hi = now + prewarm_s + period_s
        selected: List[str] = []
        for row in self._table.secondary_range("start_of_pred_activity", lo, hi):
            if row["state"] == DatabaseState.PHYSICAL_PAUSE.value:
                selected.append(row["database_id"])
        return selected
