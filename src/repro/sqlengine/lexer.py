"""SQL tokenizer.

Produces a flat token stream for the parser.  Identifiers may be dotted
(``sys.pause_resume_history``) because the paper's table names are
schema-qualified; parameters use the T-SQL ``@name`` form matching the
stored procedures of Algorithms 2-4.  Numbers are non-negative integers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import SqlSyntaxError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    PARAM = "param"
    INTEGER = "integer"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


#: Reserved words recognized as keywords (case-insensitive).
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "AND", "INSERT", "INTO", "VALUES",
        "DELETE", "UPDATE", "SET", "CREATE", "TABLE", "INDEX", "ON",
        "PRIMARY", "KEY", "NOT", "NULL", "ORDER", "BY", "ASC", "AS",
        "MIN", "MAX", "COUNT", "BIGINT", "INT", "TEXT",
    }
)

_OPERATORS = ("<=", ">=", "=", "<", ">", "+")
_PUNCT = "(),*"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def matches(self, token_type: TokenType, value: Optional[str] = None) -> bool:
        if self.type is not token_type:
            return False
        return value is None or self.value == value


def tokenize(sql: str) -> List[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on bad input."""
    return list(_tokens(sql))


def _tokens(sql: str) -> Iterator[Token]:
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            yield _string_token(sql, i)
            i = _string_end(sql, i)
            continue
        if ch == "@":
            j = i + 1
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            if j == i + 1:
                raise SqlSyntaxError("empty parameter name after '@'", i)
            yield Token(TokenType.PARAM, sql[i + 1 : j], i)
            i = j
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= sql[j] <= "9":
                j += 1
            yield Token(TokenType.INTEGER, sql[i:j], i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] in "_."):
                j += 1
            text = sql[i:j]
            upper = text.upper()
            if upper in KEYWORDS:
                yield Token(TokenType.KEYWORD, upper, i)
            else:
                yield Token(TokenType.IDENTIFIER, text, i)
            i = j
            continue
        op = next((op for op in _OPERATORS if sql.startswith(op, i)), None)
        if op is not None:
            yield Token(TokenType.OPERATOR, op, i)
            i += len(op)
            continue
        if ch in _PUNCT:
            yield Token(TokenType.PUNCT, ch, i)
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    yield Token(TokenType.EOF, "", n)


def _string_end(sql: str, start: int) -> int:
    i = start + 1
    n = len(sql)
    while i < n:
        if sql[i] == "'":
            if i + 1 < n and sql[i + 1] == "'":  # escaped quote
                i += 2
                continue
            return i + 1
        i += 1
    raise SqlSyntaxError("unterminated string literal", start)


def _string_token(sql: str, start: int) -> Token:
    end = _string_end(sql, start)
    body = sql[start + 1 : end - 1].replace("''", "'")
    return Token(TokenType.STRING, body, start)
