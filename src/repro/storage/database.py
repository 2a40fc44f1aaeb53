"""A named collection of tables: the storage container the SQL engine runs
against.

Each simulated serverless database owns one :class:`Database` instance
holding its ``sys.pause_resume_history`` table (Section 5: the history lives
*inside* the customer database so it moves with it during load balancing).
The region's control plane owns another instance holding ``sys.databases``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.errors import TableAlreadyExistsError, TableNotFoundError
from repro.storage.schema import TableSchema
from repro.storage.table import Table


class Database:
    """A dictionary of tables with create/drop semantics."""

    def __init__(self, name: str):
        self.name = name
        self._tables: Dict[str, Table] = {}

    def __contains__(self, table_name: str) -> bool:
        return table_name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from a schema; raises if the name is taken."""
        if schema.name in self._tables:
            raise TableAlreadyExistsError(
                f"table {schema.name!r} already exists in database {self.name!r}"
            )
        table = Table(schema)
        self._tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name; raises :class:`TableNotFoundError`."""
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(
                f"no table {name!r} in database {self.name!r} "
                f"(have: {self.table_names})"
            ) from None
