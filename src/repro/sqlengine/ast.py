"""Typed AST for the supported SQL subset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: object  # int or str


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class ColumnRef:
    name: str


@dataclass(frozen=True)
class Add:
    """``left + right`` (Algorithm 5's ``@now + @k``)."""

    left: "Operand"
    right: "Operand"


Operand = Union[Literal, Param, ColumnRef, Add]


@dataclass(frozen=True)
class Comparison:
    op: str  # '=', '<', '<=', '>', '>='
    left: Operand
    right: Operand


#: A WHERE clause: its comparisons, AND-ed (empty means no filter).
Where = Tuple[Comparison, ...]


@dataclass(frozen=True)
class Aggregate:
    func: str  # 'MIN', 'MAX', 'COUNT'
    argument: Optional[ColumnRef]  # None for COUNT(*)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expression: Union[ColumnRef, Aggregate]
    alias: Optional[str] = None


@dataclass(frozen=True)
class Select:
    items: Tuple[SelectItem, ...]  # empty for SELECT *
    table: str
    where: Where = ()
    order_by: Optional[str] = None  # one column, ascending


@dataclass(frozen=True)
class Insert:
    table: str
    columns: Tuple[str, ...]
    values: Tuple[Operand, ...]


@dataclass(frozen=True)
class Delete:
    table: str
    where: Where = ()


@dataclass(frozen=True)
class Assignment:
    column: str
    value: Operand


@dataclass(frozen=True)
class Update:
    table: str
    assignments: Tuple[Assignment, ...]
    where: Where = ()


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str  # BIGINT, INT, TEXT
    primary_key: bool = False
    not_null: bool = False


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: Tuple[ColumnDef, ...]


@dataclass(frozen=True)
class CreateIndex:
    table: str
    column: str


Statement = Union[Select, Insert, Delete, Update, CreateTable, CreateIndex]
