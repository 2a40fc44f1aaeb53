"""Table schemas: typed columns with the constraints the paper's stores need.

``sys.pause_resume_history`` has two columns -- ``time_snapshot BIGINT``
(unique, clustered index) and ``event_type INT`` -- while ``sys.databases``
carries the per-database state and the start of the next predicted activity
(Sections 5 and 7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """The SQL column types the engine supports."""

    BIGINT = "BIGINT"
    INT = "INT"
    FLOAT = "FLOAT"
    TEXT = "TEXT"

    def validate(self, value: Any) -> Any:
        """Coerce/validate a Python value for this column type."""
        if value is None:
            return None
        # Members compared through module globals: enum attribute lookups
        # are slow, and every stored value passes through here.
        if self is _BIGINT or self is _INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"expected an integer for {self.value}, got {value!r}")
            return value
        if self is _FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"expected a number for FLOAT, got {value!r}")
            return float(value)
        if not isinstance(value, str):
            raise SchemaError(f"expected a string for TEXT, got {value!r}")
        return value


_BIGINT, _INT, _FLOAT = ColumnType.BIGINT, ColumnType.INT, ColumnType.FLOAT


@dataclass(frozen=True)
class Column:
    """One column definition."""

    name: str
    type: ColumnType
    nullable: bool = True

    def validate(self, value: Any) -> Any:
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is NOT NULL")
            return None
        return self.type.validate(value)


@dataclass(frozen=True)
class TableSchema:
    """Schema of a table: ordered columns plus the clustered-key column.

    ``primary_key`` names the column carrying the clustered B-tree index
    (``time_snapshot`` for the history store); its values must be unique.
    """

    name: str
    columns: Tuple[Column, ...]
    primary_key: str
    #: Column name -> position, built once.
    _positions: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        positions = {c.name: i for i, c in enumerate(self.columns)}
        if len(positions) != len(self.columns):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        if self.primary_key not in positions:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )
        object.__setattr__(self, "_positions", positions)

    @property
    def column_names(self) -> List[str]:
        return list(self._positions)

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def column_index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def _check_known(self, row: Dict[str, Any]) -> None:
        if not self._positions.keys() >= row.keys():
            unknown = row.keys() - self._positions.keys()
            raise SchemaError(
                f"unknown columns {sorted(unknown)} for table {self.name!r}"
            )

    def validate_row(self, row: Dict[str, Any]) -> Tuple[Any, ...]:
        """Validate a column-name -> value mapping into a storage tuple.

        Missing nullable columns default to None; unknown columns and NOT
        NULL violations raise :class:`SchemaError`.
        """
        self._check_known(row)
        values = tuple(col.validate(row.get(col.name)) for col in self.columns)
        if values[self._positions[self.primary_key]] is None:
            raise SchemaError(
                f"primary key {self.primary_key!r} of {self.name!r} cannot be NULL"
            )
        return values

    def validate_changes(self, changes: Dict[str, Any]) -> List[Tuple[int, Any]]:
        """Validate a partial row into ``(position, value)`` pairs in column
        order, with :meth:`validate_row`'s errors for those columns."""
        self._check_known(changes)
        positions, columns = self._positions, self.columns
        pairs = sorted([(positions[name], value) for name, value in changes.items()])
        return [(i, columns[i].validate(value)) for i, value in pairs]

    def row_to_dict(self, values: Sequence[Any]) -> Dict[str, Any]:
        """Inverse of :meth:`validate_row` for a stored tuple."""
        return dict(zip(self._positions, values))


def history_schema() -> TableSchema:
    """Schema of ``sys.pause_resume_history`` (Section 5)."""
    return TableSchema(
        name="sys.pause_resume_history",
        columns=(
            Column("time_snapshot", ColumnType.BIGINT, nullable=False),
            Column("event_type", ColumnType.INT, nullable=False),
        ),
        primary_key="time_snapshot",
    )


def metadata_schema() -> TableSchema:
    """Schema of the region metadata store ``sys.databases`` (Section 7)."""
    return TableSchema(
        name="sys.databases",
        columns=(
            Column("database_id", ColumnType.TEXT, nullable=False),
            Column("state", ColumnType.TEXT, nullable=False),
            Column("start_of_pred_activity", ColumnType.BIGINT, nullable=False),
            Column("node_id", ColumnType.TEXT),
            Column("created_at", ColumnType.BIGINT),
        ),
        primary_key="database_id",
    )
