"""Planner: choose index range scans for conjunctive predicates.

The paper's complexity analysis assumes the range queries of Algorithms 3-4
run through the clustered B-tree index in O(log n + m).  The planner makes
that happen: it takes the WHERE clause's AND-ed comparisons, extracts
constant lower/upper bounds on the clustered key (or on a secondary indexed
column), and leaves the remaining comparisons as a residual filter.

Bounds may contain ``@params`` and ``+``, so they are kept as operands and
evaluated at execution time after parameter binding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sqlengine import ast

#: The mirror image of each comparison, for the ``constant OP column``
#: orientation.
_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


@dataclass(frozen=True)
class Bound:
    """One side of a key range: a constant operand plus inclusivity."""

    expression: ast.Operand
    inclusive: bool


@dataclass(frozen=True)
class ScanPlan:
    """How to produce candidate rows for a statement.

    ``index_column`` is None for a full scan; otherwise the clustered key
    (``kind == 'clustered'``) or a secondary indexed column
    (``kind == 'secondary'``).  ``residual`` holds the WHERE comparisons
    not absorbed into the bounds (empty means no filter).
    """

    table: str
    kind: str  # 'full' | 'clustered' | 'secondary'
    index_column: Optional[str] = None
    lower: Optional[Bound] = None
    upper: Optional[Bound] = None
    residual: ast.Where = ()


def _is_constant(operand: ast.Operand) -> bool:
    """Whether the operand references no columns (safe as an index bound)."""
    if isinstance(operand, ast.Add):
        return _is_constant(operand.left) and _is_constant(operand.right)
    return not isinstance(operand, ast.ColumnRef)


def _as_column_bound(
    comparison: ast.Comparison, column: str
) -> Optional[Tuple[str, ast.Operand]]:
    """If ``comparison`` is ``column OP constant`` (either orientation),
    return (normalized_op, constant) with the column on the left."""
    left, right = comparison.left, comparison.right
    if isinstance(left, ast.ColumnRef) and left.name == column and _is_constant(right):
        return comparison.op, right
    if isinstance(right, ast.ColumnRef) and right.name == column and _is_constant(left):
        return _MIRROR[comparison.op], left
    return None


def plan_scan(
    table: str,
    where: ast.Where,
    primary_key: str,
    secondary_columns: List[str],
) -> ScanPlan:
    """Build the cheapest scan for ``where`` given the available indexes.

    Preference order: clustered-key bounds, then any secondary index with
    bounds, then a full scan.  Each bound is one of ``>``, ``>=``, ``<`` and
    ``<=``; ``=`` sets both inclusive bounds.
    """
    for kind, column in [("clustered", primary_key)] + [
        ("secondary", c) for c in secondary_columns
    ]:
        lower: Optional[Bound] = None
        upper: Optional[Bound] = None
        residual: List[ast.Comparison] = []
        for comparison in where:
            bound = _as_column_bound(comparison, column)
            if bound is None:
                residual.append(comparison)
                continue
            op, constant = bound
            if op == "=":
                # Equality sets both bounds; if either side is already
                # constrained, re-check the whole comparison in the residual
                # instead of merging bounds.
                if lower is None and upper is None:
                    lower = Bound(constant, inclusive=True)
                    upper = Bound(constant, inclusive=True)
                else:
                    residual.append(comparison)
            elif op in (">", ">="):
                if lower is None:
                    lower = Bound(constant, inclusive=(op == ">="))
                else:
                    residual.append(comparison)
            else:  # '<' or '<='
                if upper is None:
                    upper = Bound(constant, inclusive=(op == "<="))
                else:
                    residual.append(comparison)
        if lower is not None or upper is not None:
            return ScanPlan(
                table=table,
                kind=kind,
                index_column=column,
                lower=lower,
                upper=upper,
                residual=tuple(residual),
            )
    return ScanPlan(table=table, kind="full", residual=where)
