"""Executor: evaluates planned statements against a storage Database.

Implements SQL NULL semantics where they matter for the paper's procedures:
aggregates over an empty set return NULL (Algorithm 4 line 25 tests
``IF @firstLogin IS NOT NULL``), comparisons involving NULL are not true,
and COUNT(*) of an empty set is 0.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.errors import SqlBindingError, SqlExecutionError
from repro.observability.runtime import OBS
from repro.sqlengine import ast
from repro.sqlengine.planner import ScanPlan, plan_scan
from repro.storage.database import Database
from repro.storage.schema import Column, ColumnType, TableSchema
from repro.storage.table import Table

Row = Dict[str, Any]
Params = Dict[str, Any]

_COMPARE = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def evaluate(operand: ast.Operand, row: Optional[Row], params: Params) -> Any:
    """Evaluate an operand against one row (row may be None for constant
    operands such as index bounds or INSERT values)."""
    if isinstance(operand, ast.Literal):
        return operand.value
    if isinstance(operand, ast.Param):
        if operand.name not in params:
            raise SqlBindingError(f"unbound parameter @{operand.name}")
        return params[operand.name]
    if isinstance(operand, ast.ColumnRef):
        if row is None:
            raise SqlExecutionError(
                f"column {operand.name!r} referenced in a row-free context"
            )
        if operand.name not in row:
            raise SqlExecutionError(f"unknown column {operand.name!r}")
        return row[operand.name]
    left = evaluate(operand.left, row, params)
    right = evaluate(operand.right, row, params)
    if left is None or right is None:
        return None
    for value in (left, right):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SqlExecutionError("operator '+' requires numeric operands")
    return left + right


def _matches(where: ast.Where, row: Row, params: Params) -> bool:
    """Whether every comparison holds; one involving NULL does not."""
    for comparison in where:
        left = evaluate(comparison.left, row, params)
        right = evaluate(comparison.right, row, params)
        if left is None or right is None:
            return False
        _check_comparable(left, right)
        if not _COMPARE[comparison.op](left, right):
            return False
    return True


def _check_comparable(left: Any, right: Any) -> None:
    numeric = (int, float)
    if isinstance(left, numeric) and isinstance(right, numeric):
        return
    if isinstance(left, str) and isinstance(right, str):
        return
    raise SqlExecutionError(
        f"cannot compare {type(left).__name__} with {type(right).__name__}"
    )


# ---------------------------------------------------------------------------
# Statement execution
# ---------------------------------------------------------------------------


class Executor:
    """Executes parsed statements against a :class:`Database`."""

    def __init__(self, database: Database):
        self._database = database

    # -- scans ----------------------------------------------------------

    def _rows_for_plan(self, plan: ScanPlan, params: Params) -> Iterator[Row]:
        if OBS.enabled:
            OBS.metrics.counter(f"sql.scans.{plan.kind}").inc()
            return self._count_rows(self._plan_rows(plan, params))
        return self._plan_rows(plan, params)

    @staticmethod
    def _count_rows(rows: Iterable[Row]) -> Iterator[Row]:
        """Pass rows through, counting them in the live registry."""
        counter = OBS.metrics.counter("sql.rows_scanned")
        for row in rows:
            counter.inc()
            yield row

    def _plan_rows(self, plan: ScanPlan, params: Params) -> Iterator[Row]:
        table = self._database.table(plan.table)
        if plan.kind == "full":
            rows: Iterable[Row] = table.scan()
        else:
            # A stand-in value of the index column's type: a mistyped bound
            # fails like a mistyped comparison, not inside the B-tree.
            column_type = table.schema.column(plan.index_column).type
            sample = "" if column_type is ColumnType.TEXT else 0
            lower, upper = plan.lower, plan.upper
            lo = None if lower is None else evaluate(lower.expression, None, params)
            hi = None if upper is None else evaluate(upper.expression, None, params)
            for bound, value in ((lower, lo), (upper, hi)):
                if bound is not None:
                    if value is None:
                        return  # a comparison with NULL is never true
                    _check_comparable(sample, value)
            include_lo = lower is None or lower.inclusive
            include_hi = upper is None or upper.inclusive
            if plan.kind == "clustered":
                rows = table.key_range(lo, hi, include_lo, include_hi)
            else:
                rows = self._secondary_rows(
                    table, plan.index_column, lo, hi, include_lo, include_hi
                )
        for row in rows:
            if _matches(plan.residual, row, params):
                yield row

    @staticmethod
    def _secondary_rows(
        table: Table,
        column: str,
        lo: Any,
        hi: Any,
        include_lo: bool,
        include_hi: bool,
    ) -> Iterator[Row]:
        # The secondary index API is inclusive; strict bounds become a
        # post-filter on the indexed value.
        for row in table.secondary_range(column, lo, hi):
            value = row[column]
            if not include_lo and lo is not None and value == lo:
                continue
            if not include_hi and hi is not None and value == hi:
                continue
            yield row

    def _plan(self, table_name: str, where: ast.Where) -> ScanPlan:
        table = self._database.table(table_name)
        secondary = [
            c for c in table.indexed_columns if c != table.schema.primary_key
        ]
        return plan_scan(table_name, where, table.schema.primary_key, secondary)

    # -- SELECT ----------------------------------------------------------

    def select(self, statement: ast.Select, params: Params) -> List[Row]:
        columns = self._database.table(statement.table).schema.column_names
        names: List[str] = []
        for item in statement.items:
            expression = item.expression
            if isinstance(expression, ast.Aggregate):
                column, name = expression.argument, expression.func.lower()
            else:
                column, name = expression, expression.name
            if column is not None and column.name not in columns:
                raise SqlExecutionError(f"unknown column {column.name!r}")
            name = item.alias or name
            if name in names:
                raise SqlExecutionError(f"duplicate output column {name!r}")
            names.append(name)
        order_by = statement.order_by
        if order_by is not None and order_by not in columns:
            raise SqlExecutionError(f"unknown ORDER BY column {order_by!r}")
        aggregates = [
            isinstance(item.expression, ast.Aggregate) for item in statement.items
        ]
        if any(aggregates) and not all(aggregates):
            raise SqlExecutionError("cannot mix aggregates with plain columns")
        rows: Iterable[Row] = self._rows_for_plan(
            self._plan(statement.table, statement.where), params
        )
        if order_by is not None:
            # NULLs sort first, as in SQL Server.
            rows = sorted(rows, key=lambda r: (r[order_by] is not None, r[order_by]))
        if not statement.items:
            return list(rows)
        if any(aggregates):
            return [_aggregate(statement.items, names, list(rows))]
        return [
            {
                name: row[item.expression.name]
                for name, item in zip(names, statement.items)
            }
            for row in rows
        ]

    # -- INSERT / DELETE / UPDATE / CREATE --------------------------------

    def insert(self, statement: ast.Insert, params: Params) -> int:
        table = self._database.table(statement.table)
        row = {
            column: evaluate(value, None, params)
            for column, value in zip(statement.columns, statement.values)
        }
        table.insert(row)
        return 1

    def delete(self, statement: ast.Delete, params: Params) -> int:
        table = self._database.table(statement.table)
        plan = self._plan(statement.table, statement.where)
        doomed = [
            row[table.schema.primary_key]
            for row in self._rows_for_plan(plan, params)
        ]
        for pk in doomed:
            table.delete_by_key(pk)
        return len(doomed)

    def update(self, statement: ast.Update, params: Params) -> int:
        table = self._database.table(statement.table)
        # Checked before matching, so the error does not depend on whether
        # any row matches.
        columns = table.schema.column_names
        for assignment in statement.assignments:
            if assignment.column not in columns:
                raise SqlExecutionError(f"unknown column {assignment.column!r}")
            if assignment.column == table.schema.primary_key:
                raise SqlExecutionError(
                    f"cannot update the primary key {assignment.column!r}"
                )
        plan = self._plan(statement.table, statement.where)
        matched = list(self._rows_for_plan(plan, params))
        count = 0
        for row in matched:
            changes = {
                assignment.column: evaluate(assignment.value, row, params)
                for assignment in statement.assignments
            }
            pk = row[table.schema.primary_key]
            if table.update_by_key(pk, changes):
                count += 1
        return count

    def create_table(self, statement: ast.CreateTable) -> int:
        primary_keys = [c.name for c in statement.columns if c.primary_key]
        if len(primary_keys) != 1:
            raise SqlExecutionError(
                f"CREATE TABLE {statement.table!r} needs exactly one PRIMARY KEY "
                f"column, got {len(primary_keys)}"
            )
        columns = tuple(
            Column(
                definition.name,
                ColumnType[definition.type_name],
                nullable=not (definition.not_null or definition.primary_key),
            )
            for definition in statement.columns
        )
        schema = TableSchema(statement.table, columns, primary_keys[0])
        self._database.create_table(schema)
        return 0

    def create_index(self, statement: ast.CreateIndex) -> int:
        self._database.table(statement.table).create_index(statement.column)
        return 0


def _aggregate(
    items: Iterable[ast.SelectItem], names: List[str], rows: List[Row]
) -> Row:
    out: Row = {}
    for name, item in zip(names, items):
        aggregate = item.expression
        if aggregate.argument is None:  # COUNT(*)
            out[name] = len(rows)
            continue
        column = aggregate.argument.name
        values = [row[column] for row in rows if row[column] is not None]
        if not values:
            out[name] = None
        elif aggregate.func == "MIN":
            out[name] = min(values)
        else:
            out[name] = max(values)
    return out
