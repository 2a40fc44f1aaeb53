"""Tests for the SQL lexer and parser."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sqlengine import ast
from repro.sqlengine.lexer import TokenType, tokenize
from repro.sqlengine.parser import parse


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select From WHERE")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_dotted_identifier(self):
        tokens = tokenize("sys.pause_resume_history")
        assert tokens[0].type is TokenType.IDENTIFIER
        assert tokens[0].value == "sys.pause_resume_history"

    def test_param(self):
        tokens = tokenize("@now")
        assert tokens[0].type is TokenType.PARAM
        assert tokens[0].value == "now"

    def test_empty_param_rejected(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("@ 5")

    def test_numbers(self):
        tokens = tokenize("42 7")
        assert [t.type for t in tokens[:-1]] == [TokenType.INTEGER] * 2
        assert tokens[0].value == "42"

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_two_char_operators(self):
        tokens = tokenize("<= >= < > = +")
        assert [t.value for t in tokens[:-1]] == ["<=", ">=", "<", ">", "=", "+"]

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT ;")

    def test_eof_token_terminates(self):
        assert tokenize("")[-1].type is TokenType.EOF


class TestParser:
    def test_select_star(self):
        statement = parse("SELECT * FROM t")
        assert isinstance(statement, ast.Select)
        assert statement.items == ()
        assert statement.table == "t"

    def test_select_with_where_and_params(self):
        statement = parse(
            "SELECT a, b FROM t WHERE a = @x AND b < @y + 1"
        )
        assert len(statement.items) == 2
        assert statement.where == (
            ast.Comparison("=", ast.ColumnRef("a"), ast.Param("x")),
            ast.Comparison(
                "<", ast.ColumnRef("b"), ast.Add(ast.Param("y"), ast.Literal(1))
            ),
        )

    def test_select_alias(self):
        statement = parse("SELECT MIN(a) AS lo FROM t")
        assert statement.items[0].alias == "lo"
        assert isinstance(statement.items[0].expression, ast.Aggregate)

    def test_count_star(self):
        statement = parse("SELECT COUNT(*) FROM t")
        aggregate = statement.items[0].expression
        assert aggregate.func == "COUNT" and aggregate.argument is None

    def test_insert(self):
        statement = parse("INSERT INTO t (a, b) VALUES (@x, 2)")
        assert isinstance(statement, ast.Insert)
        assert statement.columns == ("a", "b")
        assert statement.values[0] == ast.Param("x")

    def test_insert_arity_mismatch(self):
        with pytest.raises(SqlSyntaxError):
            parse("INSERT INTO t (a, b) VALUES (1)")

    def test_delete(self):
        statement = parse("DELETE FROM t WHERE a < 5")
        assert isinstance(statement, ast.Delete)
        assert statement.where is not None

    def test_update(self):
        statement = parse("UPDATE t SET a = 1, b = @v WHERE c = 'x'")
        assert isinstance(statement, ast.Update)
        assert [a.column for a in statement.assignments] == ["a", "b"]

    def test_create_table(self):
        statement = parse(
            "CREATE TABLE t (id BIGINT PRIMARY KEY, name TEXT NOT NULL, score INT)"
        )
        assert isinstance(statement, ast.CreateTable)
        assert statement.columns[0].primary_key
        assert statement.columns[1].not_null
        assert not statement.columns[2].not_null

    def test_create_index(self):
        statement = parse("CREATE INDEX ON t (col)")
        assert isinstance(statement, ast.CreateIndex)
        assert statement.column == "col"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM t garbage garbage")

    def test_unsupported_statement(self):
        with pytest.raises(SqlSyntaxError):
            parse("DROP TABLE t")

    def test_missing_identifier(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM WHERE a = 1")

    def test_select_order_by(self):
        statement = parse("SELECT a FROM t WHERE a > 1 ORDER BY b ASC")
        assert statement.order_by == "b"


#: One example of each construct outside the dialect the stored procedures
#: use; every one must fail to parse rather than misparse.
OUTSIDE_DIALECT = {
    "explain": "EXPLAIN SELECT * FROM t WHERE id = 1",
    "group_by": "SELECT kind, COUNT(*) AS n FROM t GROUP BY kind",
    "limit": "SELECT id FROM t LIMIT 3",
    "desc": "SELECT id FROM t ORDER BY id DESC",
    "multi_key_order_by": "SELECT id FROM t ORDER BY kind, id",
    "or": "SELECT id FROM t WHERE id = 1 OR id = 8",
    "not": "SELECT id FROM t WHERE NOT id = 1",
    "is_null": "SELECT id FROM t WHERE value IS NULL",
    "is_not_null": "SELECT id FROM t WHERE value IS NOT NULL",
    "in": "SELECT id FROM t WHERE id IN (1, 5)",
    "not_in": "SELECT id FROM t WHERE id NOT IN (1, 5)",
    "between": "SELECT id FROM t WHERE id BETWEEN 3 AND 6",
    "not_between": "SELECT id FROM t WHERE id NOT BETWEEN 3 AND 6",
    "not_equal": "SELECT id FROM t WHERE id <> 1",
    "bang_equal": "SELECT id FROM t WHERE id != 1",
    "minus": "SELECT id FROM t WHERE id < @now - 2",
    "times": "SELECT id FROM t WHERE id < @h * 24",
    "divide": "SELECT id FROM t WHERE id < 7 / 2",
    "unary_minus": "SELECT id FROM t WHERE id > -1",
    "count_column": "SELECT COUNT(value) AS n FROM t",
    "select_without_from": "SELECT 1 AS one",
    "select_expression": "SELECT id + 100 AS shifted FROM t",
    "parentheses": "SELECT id FROM t WHERE (id = 1)",
    "null_literal": "INSERT INTO t (id, kind, value) VALUES (100, 'x', NULL)",
    "float_column": "CREATE TABLE f (id BIGINT PRIMARY KEY, v FLOAT)",
    "float_literal": "SELECT id FROM t WHERE value >= 1.5",
    "comment": "SELECT id FROM t -- comment",
}


@pytest.mark.parametrize("name", sorted(OUTSIDE_DIALECT))
def test_construct_outside_dialect_rejected(name):
    with pytest.raises(SqlSyntaxError):
        parse(OUTSIDE_DIALECT[name])
