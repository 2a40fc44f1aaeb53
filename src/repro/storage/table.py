"""A typed table with a clustered B-tree index on its primary key.

Rows are stored as tuples inside the clustered index, keyed by the primary
key column, which gives the O(log n) point/range behaviour the paper's
complexity analysis (Sections 5-6) relies on.  Secondary (non-clustered)
indexes can be added for non-key predicates; the executor falls back to a
full scan otherwise.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.btree import BTree
from repro.storage.schema import TableSchema

Row = Dict[str, Any]
Predicate = Callable[[Row], bool]


class Table:
    """One table: schema + clustered index (+ optional secondary indexes)."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._clustered: BTree[Any, Tuple[Any, ...]] = BTree()
        self._pk_index = schema.column_index(schema.primary_key)
        # Secondary indexes: column name -> BTree[(value, pk) -> pk].
        self._secondary: Dict[str, BTree[Tuple[Any, Any], Any]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._clustered)

    @property
    def row_count(self) -> int:
        return len(self._clustered)

    def size_bytes(self) -> int:
        """Logical storage footprint, counting fixed widths per column type.

        The paper sizes the history store as two 64-bit integers per tuple
        (Section 9.3 / Figure 10(b)); BIGINT therefore counts 8 bytes, INT 4,
        FLOAT 8, and TEXT its UTF-8 length.
        """
        per_row = 0
        text_columns = []
        for col in self.schema.columns:
            width = {"BIGINT": 8, "INT": 4, "FLOAT": 8}.get(col.type.value)
            if width is None:
                text_columns.append(self.schema.column_index(col.name))
            else:
                per_row += width
        total = per_row * len(self._clustered)
        if text_columns:
            for _, values in self._clustered.items():
                for idx in text_columns:
                    if values[idx] is not None:
                        total += len(values[idx].encode("utf-8"))
        return total

    # ------------------------------------------------------------------
    # Secondary indexes
    # ------------------------------------------------------------------

    def create_index(self, column: str) -> None:
        """Create a non-clustered index on ``column``."""
        self.schema.column(column)  # validates existence
        if column == self.schema.primary_key:
            raise StorageError(
                f"{column!r} already carries the clustered index of {self.name!r}"
            )
        if column in self._secondary:
            raise StorageError(f"index on {column!r} already exists")
        index: BTree[Tuple[Any, Any], Any] = BTree()
        col_idx = self.schema.column_index(column)
        for pk, values in self._clustered.items():
            index.insert((values[col_idx], pk), pk)
        self._secondary[column] = index

    @property
    def indexed_columns(self) -> List[str]:
        return [self.schema.primary_key] + sorted(self._secondary)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, row: Row) -> None:
        """Insert one row; raises DuplicateKeyError on primary-key clash."""
        values = self.schema.validate_row(row)
        pk = values[self._pk_index]
        self._clustered.insert(pk, values)
        for column, index in self._secondary.items():
            col_idx = self.schema.column_index(column)
            index.insert((values[col_idx], pk), pk)

    def load_sorted(self, rows: Sequence[Tuple[Any, ...]]) -> None:
        """Fill an empty table from validated storage tuples in strictly
        ascending primary-key order, building the clustered index bottom-up
        in O(n) (the caller guarantees both; neither is re-checked)."""
        if self._clustered:
            raise StorageError(f"load_sorted needs an empty {self.name!r}")
        pk_idx = self._pk_index
        self._clustered = BTree.from_sorted([(row[pk_idx], row) for row in rows])
        for column, index in self._secondary.items():
            col_idx = self.schema.column_index(column)
            for row in rows:
                index.insert((row[col_idx], row[pk_idx]), row[pk_idx])

    def insert_if_absent(self, row: Row) -> bool:
        """Insert unless the primary key exists; True if inserted.

        This is the ``IF NOT EXISTS ... INSERT`` of Algorithm 2.
        """
        values = self.schema.validate_row(row)
        pk = values[self._pk_index]
        if pk in self._clustered:
            return False
        self._clustered.insert(pk, values)
        for column, index in self._secondary.items():
            col_idx = self.schema.column_index(column)
            index.insert((values[col_idx], pk), pk)
        return True

    def delete_by_key(self, pk: Any) -> bool:
        """Delete the row with primary key ``pk``; True if it existed."""
        values = self._clustered.discard(pk)
        if values is None:
            return False
        self._remove_from_secondary(pk, values)
        return True

    def delete_key_range(
        self,
        lo: Optional[Any] = None,
        hi: Optional[Any] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> int:
        """Delete rows whose primary key lies in the range; returns count.

        This is the range delete of Algorithm 3: one O(log n + m) range
        scan, then one O(log n) delete per row, so O(m log n) in all.
        """
        doomed = list(self._clustered.range_items(lo, hi, include_lo, include_hi))
        for pk, values in doomed:
            self._clustered.delete(pk)
            self._remove_from_secondary(pk, values)
        return len(doomed)

    def update_by_key(self, pk: Any, changes: Row) -> bool:
        """Update non-key columns of the row with primary key ``pk``."""
        if self.schema.primary_key in changes:
            raise StorageError(
                f"cannot update the primary key of {self.name!r}; "
                "delete and re-insert instead"
            )
        values = self._clustered.get(pk)
        if values is None:
            return False
        updated = list(values)
        for col_idx, value in self.schema.validate_changes(changes):
            updated[col_idx] = value
        new_values = tuple(updated)
        self._clustered.upsert(pk, new_values)
        # Stored values are already valid, so only the changed columns are
        # checked above, and only an index whose column moved is touched.
        for column, index in self._secondary.items():
            col_idx = self.schema.column_index(column)
            if values[col_idx] != new_values[col_idx]:
                index.discard((values[col_idx], pk))
                index.insert((new_values[col_idx], pk), pk)
        return True

    def _remove_from_secondary(self, pk: Any, values: Tuple[Any, ...]) -> None:
        for column, index in self._secondary.items():
            col_idx = self.schema.column_index(column)
            index.discard((values[col_idx], pk))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def get(self, pk: Any) -> Optional[Row]:
        """Point lookup by primary key."""
        values = self._clustered.get(pk)
        return None if values is None else self.schema.row_to_dict(values)

    def scan(self, predicate: Optional[Predicate] = None) -> Iterator[Row]:
        """Full scan in primary-key order, optionally filtered."""
        for _, values in self._clustered.items():
            row = self.schema.row_to_dict(values)
            if predicate is None or predicate(row):
                yield row

    def key_range(
        self,
        lo: Optional[Any] = None,
        hi: Optional[Any] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[Row]:
        """Clustered-index range scan in key order."""
        for _, values in self._clustered.range_items(lo, hi, include_lo, include_hi):
            yield self.schema.row_to_dict(values)

    def secondary_range(
        self,
        column: str,
        lo: Optional[Any] = None,
        hi: Optional[Any] = None,
    ) -> Iterator[Row]:
        """Range scan over a secondary index (inclusive bounds on value)."""
        index = self._secondary.get(column)
        if index is None:
            raise StorageError(f"no index on {column!r} of {self.name!r}")
        composite_lo = None if lo is None else (lo, _NEG_INF)
        composite_hi = None if hi is None else (hi, _POS_INF)
        for (_, pk), __ in index.range_items(composite_lo, composite_hi):
            values = self._clustered.get(pk)
            if values is None:  # pragma: no cover - indexes kept in sync
                raise StorageError(f"dangling index entry for pk {pk!r}")
            yield self.schema.row_to_dict(values)

    def min_key(self) -> Optional[Any]:
        """Smallest primary key (Algorithm 3's MIN(time_snapshot))."""
        return self._clustered.min_key()

    def max_key(self) -> Optional[Any]:
        return self._clustered.max_key()


class _Extreme:
    """Sorts below (or above) every other value, for composite index bounds."""

    def __init__(self, low: bool):
        self._low = low

    def __lt__(self, other: Any) -> bool:
        return self._low

    def __gt__(self, other: Any) -> bool:
        return not self._low

    def __eq__(self, other: Any) -> bool:
        return self is other

    def __hash__(self) -> int:  # pragma: no cover - never hashed in practice
        return id(self)


_NEG_INF = _Extreme(low=True)
_POS_INF = _Extreme(low=False)
