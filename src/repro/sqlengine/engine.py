"""The SQL engine facade: parse -> plan -> execute with a statement cache.

The stored procedures of Algorithms 2-4 execute the same parameterized
statements thousands of times per simulation, so parsed ASTs are cached by
SQL text (prepared-statement behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import SqlExecutionError
from repro.faults.runtime import FAULTS
from repro.observability.runtime import OBS
from repro.sqlengine import ast
from repro.sqlengine.executor import Executor, Row
from repro.sqlengine.parser import parse
from repro.storage.database import Database

#: Fault point consulted once per executed statement: a transient engine
#: failure (deadlock victim, connection reset) surfaced as
#: :class:`SqlExecutionError` so callers exercise their retry paths.
EXECUTE_FAULT_POINT = "sql.execute"


@dataclass(frozen=True)
class StatementResult:
    """Outcome of one statement: result rows for SELECT, affected-row count
    for mutations, 0 rows affected for DDL."""

    rows: List[Row]
    rowcount: int

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result (or None)."""
        if not self.rows:
            return None
        row = self.rows[0]
        if len(row) != 1:
            raise ValueError(f"scalar() on a {len(row)}-column row")
        return next(iter(row.values()))


class SqlEngine:
    """Executes SQL text against one storage :class:`Database`."""

    def __init__(self, database: Database):
        self.database = database
        self._executor = Executor(database)
        self._statement_cache: Dict[str, ast.Statement] = {}

    def prepare(self, sql: str) -> ast.Statement:
        """Parse (with caching) one SQL statement."""
        statement = self._statement_cache.get(sql)
        if statement is None:
            statement = parse(sql)
            self._statement_cache[sql] = statement
            if OBS.enabled:
                OBS.metrics.counter("sql.statements_parsed").inc()
        return statement

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None) -> StatementResult:
        """Parse, plan, and execute one statement with ``@param`` bindings."""
        statement = self.prepare(sql)
        if FAULTS.enabled and FAULTS.injector.should_fire(EXECUTE_FAULT_POINT):
            raise SqlExecutionError(
                "injected: transient failure executing statement"
            )
        if OBS.enabled:
            kind = type(statement).__name__.lower()
            OBS.metrics.counter(f"sql.executed.{kind}").inc()
            with OBS.tracer.span("sql.execute", kind=kind):
                return self._execute(statement, params)
        return self._execute(statement, params)

    def _execute(
        self, statement: ast.Statement, params: Optional[Dict[str, Any]]
    ) -> StatementResult:
        bound = params or {}
        if isinstance(statement, ast.Select):
            rows = self._executor.select(statement, bound)
            return StatementResult(rows=rows, rowcount=len(rows))
        if isinstance(statement, ast.Insert):
            return StatementResult(rows=[], rowcount=self._executor.insert(statement, bound))
        if isinstance(statement, ast.Delete):
            return StatementResult(rows=[], rowcount=self._executor.delete(statement, bound))
        if isinstance(statement, ast.Update):
            return StatementResult(rows=[], rowcount=self._executor.update(statement, bound))
        if isinstance(statement, ast.CreateTable):
            return StatementResult(rows=[], rowcount=self._executor.create_table(statement))
        if isinstance(statement, ast.CreateIndex):
            return StatementResult(rows=[], rowcount=self._executor.create_index(statement))
        raise TypeError(f"unhandled statement type {type(statement).__name__}")

    def exists(self, sql: str, params: Optional[Dict[str, Any]] = None) -> bool:
        """``IF EXISTS (SELECT ...)`` helper used by Algorithm 2."""
        return bool(self.execute(sql, params).rows)
