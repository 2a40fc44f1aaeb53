"""A minimal SQL engine over the storage substrate.

The paper implements its history maintenance and prediction algorithms as
SQL stored procedures against ``sys.pause_resume_history`` (Algorithms 2-4)
and queries ``sys.databases`` from the proactive resume operation
(Algorithm 5).  This package provides exactly the SQL surface those
procedures need, from scratch:

* lexer (:mod:`repro.sqlengine.lexer`) and recursive-descent parser
  (:mod:`repro.sqlengine.parser`) producing a typed AST
  (:mod:`repro.sqlengine.ast`);
* a planner (:mod:`repro.sqlengine.planner`) that turns AND-ed comparisons
  on indexed columns into clustered/secondary index range scans and
  everything else into filtered full scans;
* an executor (:mod:`repro.sqlengine.executor`) with ``@parameter``
  binding, ``MIN``/``MAX``/``COUNT(*)``, a one-column ascending
  ``ORDER BY``, and ``INSERT``/``DELETE``/``UPDATE``/``CREATE TABLE``/
  ``CREATE INDEX``.

The dialect is exactly what :mod:`repro.sqlengine.procedures` issues: WHERE
clauses are ANDs of ``=``, ``<``, ``<=``, ``>`` and ``>=`` over integer and
string literals, ``@params``, columns and ``+``.  Anything else raises
:class:`repro.errors.SqlSyntaxError`.

Entry point::

    engine = SqlEngine(database)
    engine.execute("SELECT MIN(time_snapshot) AS t FROM sys.pause_resume_history")
"""

from repro.sqlengine.engine import SqlEngine, StatementResult
from repro.sqlengine.procedures import SqlHistoryProcedures, SqlMetadataProcedures

__all__ = [
    "SqlEngine",
    "StatementResult",
    "SqlHistoryProcedures",
    "SqlMetadataProcedures",
]
