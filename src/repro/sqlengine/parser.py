"""Recursive-descent parser for the supported SQL subset.

Grammar (informal)::

    statement   := select | insert | delete | update | create_table
                 | create_index
    select      := SELECT items FROM table [where] [ORDER BY col [ASC]]
    items       := '*' | item {',' item}
    item        := (col | MIN '(' col ')' | MAX '(' col ')' | COUNT '(' '*' ')')
                   [AS alias]
    insert      := INSERT INTO table '(' cols ')' VALUES '(' operands ')'
    delete      := DELETE FROM table [where]
    update      := UPDATE table SET col '=' operand {',' ...} [where]
    create_table:= CREATE TABLE table '(' coldef {',' coldef} ')'
    coldef      := name (BIGINT | INT | TEXT) {PRIMARY KEY | NOT NULL}
    create_index:= CREATE INDEX ON table '(' col ')'
    where       := WHERE comparison {AND comparison}
    comparison  := operand ('=' | '<' | '<=' | '>' | '>=') operand
    operand     := term {'+' term}
    term        := integer | 'string' | @param | col

Anything else raises :class:`SqlSyntaxError`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SqlSyntaxError
from repro.sqlengine import ast
from repro.sqlengine.lexer import Token, TokenType, tokenize

_COMPARISONS = frozenset({"=", "<", "<=", ">", ">="})
_COLUMN_TYPES = frozenset({"BIGINT", "INT", "TEXT"})


def parse(sql: str) -> ast.Statement:
    """Parse one SQL statement."""
    return _Parser(tokenize(sql)).parse_statement()


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        self._pos += 1
        return token

    def _accept(self, token_type: TokenType, value: Optional[str] = None) -> Optional[Token]:
        if self._current.matches(token_type, value):
            return self._advance()
        return None

    def _expect(self, token_type: TokenType, value: Optional[str] = None) -> Token:
        if not self._current.matches(token_type, value):
            want = value or token_type.value
            got = self._current.value or self._current.type.value
            raise SqlSyntaxError(
                f"expected {want!r}, got {got!r}", self._current.position
            )
        return self._advance()

    def _expect_identifier(self) -> str:
        return self._expect(TokenType.IDENTIFIER).value

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        token = self._current
        parse = {
            "SELECT": self._parse_select,
            "INSERT": self._parse_insert,
            "DELETE": self._parse_delete,
            "UPDATE": self._parse_update,
            "CREATE": self._parse_create,
        }.get(token.value if token.type is TokenType.KEYWORD else "")
        if parse is None:
            raise SqlSyntaxError(
                f"unsupported statement start {token.value!r}", token.position
            )
        statement = parse()
        self._expect(TokenType.EOF)
        return statement

    def _parse_select(self) -> ast.Select:
        self._expect(TokenType.KEYWORD, "SELECT")
        items = []
        if not self._accept(TokenType.PUNCT, "*"):
            items.append(self._parse_select_item())
            while self._accept(TokenType.PUNCT, ","):
                items.append(self._parse_select_item())
        self._expect(TokenType.KEYWORD, "FROM")
        table = self._expect_identifier()
        where = self._parse_optional_where()
        order_by = None
        if self._accept(TokenType.KEYWORD, "ORDER"):
            self._expect(TokenType.KEYWORD, "BY")
            order_by = self._expect_identifier()
            self._accept(TokenType.KEYWORD, "ASC")
        return ast.Select(tuple(items), table, where, order_by)

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._current
        if token.type is TokenType.KEYWORD and token.value in ("MIN", "MAX", "COUNT"):
            self._advance()
            self._expect(TokenType.PUNCT, "(")
            if token.value == "COUNT":
                self._expect(TokenType.PUNCT, "*")
                argument = None
            else:
                argument = ast.ColumnRef(self._expect_identifier())
            self._expect(TokenType.PUNCT, ")")
            expression = ast.Aggregate(token.value, argument)
        else:
            expression = ast.ColumnRef(self._expect_identifier())
        alias = None
        if self._accept(TokenType.KEYWORD, "AS"):
            alias = self._expect_identifier()
        return ast.SelectItem(expression, alias)

    def _parse_insert(self) -> ast.Insert:
        self._expect(TokenType.KEYWORD, "INSERT")
        self._expect(TokenType.KEYWORD, "INTO")
        table = self._expect_identifier()
        self._expect(TokenType.PUNCT, "(")
        columns = [self._expect_identifier()]
        while self._accept(TokenType.PUNCT, ","):
            columns.append(self._expect_identifier())
        self._expect(TokenType.PUNCT, ")")
        self._expect(TokenType.KEYWORD, "VALUES")
        self._expect(TokenType.PUNCT, "(")
        values = [self._parse_operand()]
        while self._accept(TokenType.PUNCT, ","):
            values.append(self._parse_operand())
        self._expect(TokenType.PUNCT, ")")
        if len(columns) != len(values):
            raise SqlSyntaxError(
                f"INSERT has {len(columns)} columns but {len(values)} values",
                self._current.position,
            )
        return ast.Insert(table, tuple(columns), tuple(values))

    def _parse_delete(self) -> ast.Delete:
        self._expect(TokenType.KEYWORD, "DELETE")
        self._expect(TokenType.KEYWORD, "FROM")
        table = self._expect_identifier()
        return ast.Delete(table, self._parse_optional_where())

    def _parse_update(self) -> ast.Update:
        self._expect(TokenType.KEYWORD, "UPDATE")
        table = self._expect_identifier()
        self._expect(TokenType.KEYWORD, "SET")
        assignments = []
        while True:
            column = self._expect_identifier()
            self._expect(TokenType.OPERATOR, "=")
            assignments.append(ast.Assignment(column, self._parse_operand()))
            if not self._accept(TokenType.PUNCT, ","):
                break
        return ast.Update(table, tuple(assignments), self._parse_optional_where())

    def _parse_create(self) -> ast.Statement:
        self._expect(TokenType.KEYWORD, "CREATE")
        if self._accept(TokenType.KEYWORD, "INDEX"):
            self._expect(TokenType.KEYWORD, "ON")
            table = self._expect_identifier()
            self._expect(TokenType.PUNCT, "(")
            column = self._expect_identifier()
            self._expect(TokenType.PUNCT, ")")
            return ast.CreateIndex(table, column)
        self._expect(TokenType.KEYWORD, "TABLE")
        table = self._expect_identifier()
        self._expect(TokenType.PUNCT, "(")
        columns = [self._parse_column_def()]
        while self._accept(TokenType.PUNCT, ","):
            columns.append(self._parse_column_def())
        self._expect(TokenType.PUNCT, ")")
        return ast.CreateTable(table, tuple(columns))

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._expect_identifier()
        type_token = self._current
        if not (
            type_token.type is TokenType.KEYWORD and type_token.value in _COLUMN_TYPES
        ):
            raise SqlSyntaxError(
                f"expected a column type, got {type_token.value!r}",
                type_token.position,
            )
        self._advance()
        primary_key = False
        not_null = False
        while True:
            if self._accept(TokenType.KEYWORD, "PRIMARY"):
                self._expect(TokenType.KEYWORD, "KEY")
                primary_key = True
            elif self._accept(TokenType.KEYWORD, "NOT"):
                self._expect(TokenType.KEYWORD, "NULL")
                not_null = True
            else:
                break
        return ast.ColumnDef(name, type_token.value, primary_key, not_null)

    # ------------------------------------------------------------------
    # WHERE clauses and operands
    # ------------------------------------------------------------------

    def _parse_optional_where(self) -> ast.Where:
        if not self._accept(TokenType.KEYWORD, "WHERE"):
            return ()
        comparisons = [self._parse_comparison()]
        while self._accept(TokenType.KEYWORD, "AND"):
            comparisons.append(self._parse_comparison())
        return tuple(comparisons)

    def _parse_comparison(self) -> ast.Comparison:
        left = self._parse_operand()
        token = self._current
        if token.type is not TokenType.OPERATOR or token.value not in _COMPARISONS:
            raise SqlSyntaxError(
                f"expected a comparison operator, got {token.value!r}",
                token.position,
            )
        self._advance()
        return ast.Comparison(token.value, left, self._parse_operand())

    def _parse_operand(self) -> ast.Operand:
        operand = self._parse_term()
        while self._accept(TokenType.OPERATOR, "+"):
            operand = ast.Add(operand, self._parse_term())
        return operand

    def _parse_term(self) -> ast.Operand:
        token = self._advance()
        if token.type is TokenType.INTEGER:
            return ast.Literal(int(token.value))
        if token.type is TokenType.STRING:
            return ast.Literal(token.value)
        if token.type is TokenType.PARAM:
            return ast.Param(token.value)
        if token.type is TokenType.IDENTIFIER:
            return ast.ColumnRef(token.value)
        raise SqlSyntaxError(
            f"unexpected token {token.value!r} in expression", token.position
        )
