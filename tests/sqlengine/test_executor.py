"""Tests for planning and executing SQL against the storage substrate."""

import pytest

from repro.errors import SqlBindingError, SqlExecutionError, TableNotFoundError
from repro.sqlengine import ast, procedures
from repro.sqlengine.engine import SqlEngine
from repro.sqlengine.parser import parse
from repro.sqlengine.planner import Bound, ScanPlan, plan_scan
from repro.storage.database import Database


@pytest.fixture
def engine():
    database = Database("test")
    eng = SqlEngine(database)
    eng.execute(
        "CREATE TABLE t (id BIGINT PRIMARY KEY, kind TEXT NOT NULL, value BIGINT)"
    )
    for i in range(10):
        eng.execute(
            "INSERT INTO t (id, kind, value) VALUES (@i, @k, @v)",
            {"i": i, "k": "even" if i % 2 == 0 else "odd", "v": i},
        )
    return eng


class TestSelect:
    def test_select_star(self, engine):
        result = engine.execute("SELECT * FROM t")
        assert result.rowcount == 10
        assert result.rows[0] == {"id": 0, "kind": "even", "value": 0}

    def test_select_projection(self, engine):
        rows = engine.execute("SELECT id FROM t WHERE id < 3").rows
        assert rows == [{"id": 0}, {"id": 1}, {"id": 2}]

    def test_where_equality_on_pk(self, engine):
        rows = engine.execute("SELECT * FROM t WHERE id = 4").rows
        assert len(rows) == 1 and rows[0]["id"] == 4

    def test_where_range_with_params(self, engine):
        rows = engine.execute(
            "SELECT id FROM t WHERE @lo <= id AND id <= @hi",
            {"lo": 3, "hi": 6},
        ).rows
        assert [r["id"] for r in rows] == [3, 4, 5, 6]

    def test_where_arithmetic_bound(self, engine):
        rows = engine.execute(
            "SELECT id FROM t WHERE id < @base + 2", {"base": 1}
        ).rows
        assert [r["id"] for r in rows] == [0, 1, 2]

    def test_where_non_indexed_column(self, engine):
        rows = engine.execute("SELECT id FROM t WHERE kind = 'even'").rows
        assert [r["id"] for r in rows] == [0, 2, 4, 6, 8]

    def test_order_by_column_not_projected(self, engine):
        rows = engine.execute("SELECT id FROM t ORDER BY kind").rows
        assert [r["id"] for r in rows] == [0, 2, 4, 6, 8, 1, 3, 5, 7, 9]

    def test_order_by_puts_nulls_first(self, engine):
        engine.execute(
            "INSERT INTO t (id, kind, value) VALUES (100, 'x', @v)", {"v": None}
        )
        rows = engine.execute("SELECT id FROM t WHERE id >= 8 ORDER BY value ASC").rows
        assert [r["id"] for r in rows] == [100, 8, 9]

    def test_order_by_unknown_column_on_empty_result(self, engine):
        with pytest.raises(SqlExecutionError):
            engine.execute("SELECT id FROM t WHERE id > 100 ORDER BY bogus")

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT MIN(id) AS a, MAX(id) AS a FROM t",
            "SELECT MIN(id), MIN(value) FROM t",
            "SELECT id, kind AS id FROM t",
        ],
    )
    def test_duplicate_output_column_rejected(self, engine, sql):
        with pytest.raises(SqlExecutionError):
            engine.execute(sql)

    def test_unbound_param_raises(self, engine):
        with pytest.raises(SqlBindingError):
            engine.execute("SELECT * FROM t WHERE id = @missing")

    def test_unknown_table(self, engine):
        with pytest.raises(TableNotFoundError):
            engine.execute("SELECT * FROM nope")

    def test_unknown_column_in_where(self, engine):
        with pytest.raises(SqlExecutionError):
            engine.execute("SELECT * FROM t WHERE bogus = 1")

    def test_type_mismatch_comparison(self, engine):
        with pytest.raises(SqlExecutionError):
            engine.execute("SELECT * FROM t WHERE kind = 5")


class TestAggregates:
    def test_min_max(self, engine):
        row = engine.execute("SELECT MIN(id) AS lo, MAX(id) AS hi FROM t").rows[0]
        assert row == {"lo": 0, "hi": 9}

    def test_min_over_empty_is_null(self, engine):
        row = engine.execute("SELECT MIN(id) AS lo FROM t WHERE id > 100").rows[0]
        assert row["lo"] is None

    def test_count_star(self, engine):
        assert engine.execute("SELECT COUNT(*) AS n FROM t").scalar() == 10

    def test_aggregate_with_range_filter(self, engine):
        row = engine.execute(
            "SELECT MIN(id) AS lo, MAX(id) AS hi FROM t "
            "WHERE kind = 'odd' AND 2 <= id AND id <= 8"
        ).rows[0]
        assert row == {"lo": 3, "hi": 7}

    def test_mixing_aggregate_and_column_rejected(self, engine):
        with pytest.raises(SqlExecutionError):
            engine.execute("SELECT MIN(id), kind FROM t")


class TestMutations:
    def test_delete_range(self, engine):
        result = engine.execute("DELETE FROM t WHERE 3 < id AND id < 7")
        assert result.rowcount == 3
        assert engine.execute("SELECT COUNT(*) AS n FROM t").scalar() == 7

    def test_delete_all(self, engine):
        assert engine.execute("DELETE FROM t").rowcount == 10

    def test_update(self, engine):
        count = engine.execute(
            "UPDATE t SET kind = 'changed' WHERE id <= 2"
        ).rowcount
        assert count == 3
        rows = engine.execute("SELECT id FROM t WHERE kind = 'changed'").rows
        assert [r["id"] for r in rows] == [0, 1, 2]

    def test_update_with_expression(self, engine):
        engine.execute("UPDATE t SET value = value + value WHERE id = 3")
        row = engine.execute("SELECT value FROM t WHERE id = 3").rows[0]
        assert row["value"] == 6

    @pytest.mark.parametrize(
        "sql",
        ["UPDATE t SET nope = 1 WHERE id = @id", "UPDATE t SET id = 7 WHERE id = @id"],
    )
    @pytest.mark.parametrize("target", [6, 60])
    def test_update_of_unknown_or_key_column_fails_with_or_without_a_match(
        self, engine, sql, target
    ):
        with pytest.raises(SqlExecutionError):
            engine.execute(sql, {"id": target})
        rows = engine.execute("SELECT * FROM t WHERE id >= 6 AND id <= 7").rows
        assert rows == [
            {"id": 6, "kind": "even", "value": 6},
            {"id": 7, "kind": "odd", "value": 7},
        ]

    def test_insert_null_into_not_null_rejected(self, engine):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            engine.execute(
                "INSERT INTO t (id, kind) VALUES (50, @k)", {"k": None}
            )


class TestNullAndArithmeticSemantics:
    def test_comparison_with_null_is_not_true(self, engine):
        engine.execute(
            "INSERT INTO t (id, kind, value) VALUES (100, 'x', @v)", {"v": None}
        )
        rows = engine.execute("SELECT id FROM t WHERE value < 1000").rows
        assert 100 not in [r["id"] for r in rows]

    @pytest.mark.parametrize(
        "where", ["id >= @x", "@x > id", "value <= @x", "kind = @x"]
    )
    def test_null_index_bound_matches_nothing(self, engine, where):
        engine.execute("CREATE INDEX ON t (value)")
        engine.execute("CREATE INDEX ON t (kind)")
        rows = engine.execute(f"SELECT id FROM t WHERE {where}", {"x": None}).rows
        assert rows == []

    @pytest.mark.parametrize("where", ["id = 'x'", "'x' < id", "kind >= 3"])
    def test_mistyped_index_bound_raises(self, engine, where):
        engine.execute("CREATE INDEX ON t (kind)")
        with pytest.raises(SqlExecutionError):
            engine.execute(f"SELECT id FROM t WHERE {where}")

    def test_plus_with_null_is_null(self, engine):
        engine.execute(
            "INSERT INTO t (id, kind, value) VALUES (100, 'x', @v)", {"v": None}
        )
        engine.execute("UPDATE t SET value = value + 1 WHERE id >= 9")
        rows = engine.execute("SELECT id, value FROM t WHERE id >= 9").rows
        assert rows == [{"id": 9, "value": 10}, {"id": 100, "value": None}]

    def test_plus_requires_numbers(self, engine):
        with pytest.raises(SqlExecutionError):
            engine.execute("SELECT id FROM t WHERE id = kind + 1")


class TestPlanner:
    def _plan(self, where_sql, secondary=()):
        statement = parse(f"SELECT * FROM t WHERE {where_sql}")
        return plan_scan("t", statement.where, "id", list(secondary))

    def test_pk_range_uses_clustered_index(self):
        plan = self._plan("@lo <= id AND id < @hi")
        assert plan.kind == "clustered"
        assert plan.lower.inclusive and not plan.upper.inclusive
        assert plan.residual == ()

    def test_equality_sets_both_bounds(self):
        plan = self._plan("id = 5")
        assert plan.kind == "clustered"
        assert plan.lower.inclusive and plan.upper.inclusive

    def test_extra_conjunct_becomes_residual(self):
        plan = self._plan("id >= 1 AND kind = 'x'")
        assert plan.kind == "clustered"
        assert plan.residual == (
            ast.Comparison("=", ast.ColumnRef("kind"), ast.Literal("x")),
        )

    def test_no_index_match_full_scan(self):
        plan = self._plan("kind = 'x'")
        assert plan.kind == "full"
        assert len(plan.residual) == 1

    def test_secondary_index_preferred_over_full_scan(self):
        plan = self._plan("value >= 1", secondary=["value"])
        assert plan.kind == "secondary"
        assert plan.index_column == "value"

    def test_duplicate_bound_goes_residual(self):
        plan = self._plan("id >= 1 AND id >= 2")
        assert plan.kind == "clustered"
        assert plan.lower == Bound(ast.Literal(1), inclusive=True)
        assert plan.residual == (
            ast.Comparison(">=", ast.ColumnRef("id"), ast.Literal(2)),
        )

    def test_equality_after_range_goes_residual(self):
        plan = self._plan("id >= 1 AND id = 5")
        assert plan.kind == "clustered"
        # Equality must not silently widen/narrow existing bounds.
        assert plan.upper is None
        assert plan.residual == (
            ast.Comparison("=", ast.ColumnRef("id"), ast.Literal(5)),
        )



def _point(param):
    return Bound(ast.Param(param), inclusive=True)


_NOW_K = ast.Add(ast.Param("now"), ast.Param("k"))

#: The access path of every procedure statement with a WHERE clause:
#: (sql, kind, index column, lower bound, upper bound, residual).
PROCEDURE_PLANS = {
    "alg2_exists": (
        procedures._EXISTS_TIMESTAMP, "clustered", "time_snapshot",
        _point("time"), _point("time"), (),
    ),
    "alg3_delete": (
        procedures._DELETE_OLD, "clustered", "time_snapshot",
        Bound(ast.Param("minTimestamp"), inclusive=False),
        Bound(ast.Param("historyStart"), inclusive=False),
        (),
    ),
    "alg4_first_last_login": (
        procedures._FIRST_LAST_LOGIN, "clustered", "time_snapshot",
        _point("winStartPrevDay"), _point("winEndPrevDay"),
        (ast.Comparison("=", ast.ColumnRef("event_type"), ast.Literal(1)),),
    ),
    "alg5_prewarm_scan": (
        procedures._PREWARM_SCAN, "secondary", "start_of_pred_activity",
        Bound(_NOW_K, inclusive=True),
        Bound(ast.Add(_NOW_K, ast.Param("period")), inclusive=True),
        (
            ast.Comparison(
                "=", ast.ColumnRef("state"), ast.Literal("physical_pause")
            ),
        ),
    ),
    "set_state": (
        procedures._SET_STATE, "clustered", "database_id",
        _point("id"), _point("id"), (),
    ),
    "record_physical_pause": (
        procedures._RECORD_PHYSICAL_PAUSE, "clustered", "database_id",
        _point("id"), _point("id"), (),
    ),
}


@pytest.mark.parametrize("name", sorted(PROCEDURE_PLANS))
def test_procedure_access_path(name):
    """Each range statement of Algorithms 2-5 runs through an index with
    exactly the bounds the paper's complexity analysis assumes."""
    sql, kind, column, lower, upper, residual = PROCEDURE_PLANS[name]
    statement = parse(sql)
    if statement.table == "sys.databases":
        procs = procedures.SqlMetadataProcedures()
    else:
        procs = procedures.SqlHistoryProcedures()
    table = procs.database.table(statement.table)
    primary_key = table.schema.primary_key
    plan = plan_scan(
        statement.table,
        statement.where,
        primary_key,
        [c for c in table.indexed_columns if c != primary_key],
    )
    assert plan == ScanPlan(statement.table, kind, column, lower, upper, residual)


class TestSecondaryIndexExecution:
    def test_secondary_range_scan(self):
        database = Database("test")
        engine = SqlEngine(database)
        engine.execute("CREATE TABLE m (id TEXT PRIMARY KEY, ts BIGINT NOT NULL)")
        engine.execute("CREATE INDEX ON m (ts)")
        for i in range(20):
            engine.execute(
                "INSERT INTO m (id, ts) VALUES (@id, @ts)",
                {"id": f"db-{i:02d}", "ts": i * 10},
            )
        rows = engine.execute(
            "SELECT id FROM m WHERE @lo <= ts AND ts <= @hi",
            {"lo": 50, "hi": 80},
        ).rows
        assert [r["id"] for r in rows] == ["db-05", "db-06", "db-07", "db-08"]

    def test_strict_bounds_on_secondary(self):
        database = Database("test")
        engine = SqlEngine(database)
        engine.execute("CREATE TABLE m (id TEXT PRIMARY KEY, ts BIGINT NOT NULL)")
        engine.execute("CREATE INDEX ON m (ts)")
        for i in range(5):
            engine.execute(
                "INSERT INTO m (id, ts) VALUES (@id, @ts)", {"id": str(i), "ts": i}
            )
        rows = engine.execute("SELECT id FROM m WHERE 1 < ts AND ts < 4").rows
        assert [r["id"] for r in rows] == ["2", "3"]


class TestStatementCache:
    def test_prepare_caches_ast(self, engine):
        sql = "SELECT * FROM t WHERE id = @x"
        first = engine.prepare(sql)
        second = engine.prepare(sql)
        assert first is second

    def test_scalar_helpers(self, engine):
        assert engine.execute("SELECT MAX(id) AS m FROM t").scalar() == 9
        assert engine.exists("SELECT * FROM t WHERE id = 3")
        assert not engine.exists("SELECT * FROM t WHERE id = 333")
