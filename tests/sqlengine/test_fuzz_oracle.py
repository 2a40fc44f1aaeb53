"""Property-based SQL engine tests against a Python-filter oracle.

Random AND-conjunctions of the five comparisons the stored procedures use
(``=``, ``<``, ``<=``, ``>``, ``>=``), in either orientation, with literals
or ``@params``, over a table with a clustered key and a secondary index,
must return exactly the rows a straightforward Python evaluation returns --
regardless of whether the planner chose a clustered scan, a secondary scan,
or a full scan.  This pins the planner's bound extraction (including the
residual re-check paths) to the semantics.
"""

import operator

from hypothesis import given, settings, strategies as st

from repro.errors import ProRPError, SqlSyntaxError
from repro.sqlengine.engine import SqlEngine
from repro.sqlengine.parser import parse
from repro.storage.database import Database

_OPS = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}

_ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
    ),
    min_size=0,
    max_size=25,
)


def build_engine(rows):
    database = Database("fuzz")
    engine = SqlEngine(database)
    engine.execute(
        "CREATE TABLE t (id BIGINT PRIMARY KEY, a BIGINT NOT NULL, b BIGINT NOT NULL)"
    )
    engine.execute("CREATE INDEX ON t (a)")
    for i, (a, b) in enumerate(rows):
        engine.execute(
            "INSERT INTO t (id, a, b) VALUES (@i, @a, @b)",
            {"i": i, "a": a, "b": b},
        )
    return engine


@st.composite
def conjunction(draw):
    """(sql, params, oracle) for 1-4 AND-ed comparisons."""
    parts, params, specs = [], {}, []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        column = draw(st.sampled_from(["id", "a", "b"]))
        op = draw(st.sampled_from(sorted(_OPS)))
        value = draw(st.integers(min_value=0, max_value=25))
        if draw(st.booleans()):
            constant = f"@p{i}"
            params[f"p{i}"] = value
        else:
            constant = str(value)
        if draw(st.booleans()):
            parts.append(f"{constant} {_MIRROR[op]} {column}")
        else:
            parts.append(f"{column} {op} {constant}")
        specs.append((column, op, value))

    def oracle(row):
        return all(_OPS[op](row[column], value) for column, op, value in specs)

    return " AND ".join(parts), params, oracle


@settings(max_examples=150, deadline=None)
@given(_ROWS, conjunction())
def test_where_matches_python_oracle(rows, case):
    sql_predicate, params, oracle = case
    engine = build_engine(rows)
    got = engine.execute(f"SELECT id FROM t WHERE {sql_predicate}", params).rows
    expected = [
        i for i, (a, b) in enumerate(rows) if oracle({"id": i, "a": a, "b": b})
    ]
    # No ORDER BY: row order depends on the chosen access path.
    assert sorted(r["id"] for r in got) == expected


@settings(max_examples=60, deadline=None)
@given(_ROWS, st.integers(min_value=-2, max_value=22))
def test_delete_matches_oracle(rows, cutoff):
    engine = build_engine(rows)
    deleted = engine.execute("DELETE FROM t WHERE b < @c", {"c": cutoff}).rowcount
    expected_deleted = sum(1 for _, b in rows if b < cutoff)
    assert deleted == expected_deleted
    remaining = engine.execute("SELECT COUNT(*) AS n FROM t").scalar()
    assert remaining == len(rows) - expected_deleted


_HEADS = [
    "SELECT * FROM t WHERE",
    "SELECT id, b FROM t WHERE",
    "SELECT MIN(a) AS m, COUNT(*) FROM t WHERE",
    "DELETE FROM t WHERE",
    "UPDATE t SET b = @p + 1 WHERE",
]
_COMPARISONS = [
    "id = 1", "a < @p", "@p + 1 <= id", "b >= @q", "c = 'x'", "id = 'x'",
    "a + 'x' > 1", "id <> 1", "a IS NULL", "id > -1", "(id = 1)", "a = 1.5",
    "NOT a = 1", "a", "=",
]
_JOINS = ["AND", "AND", "AND", "OR", ","]
_TAILS = ["", "", "ORDER BY id", "ORDER BY c", "ORDER BY a DESC", "LIMIT 1"]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_HEADS),
    st.sampled_from(_COMPARISONS),
    st.lists(
        st.tuples(st.sampled_from(_JOINS), st.sampled_from(_COMPARISONS)),
        max_size=3,
    ),
    st.sampled_from(_TAILS),
)
def test_arbitrary_text_fails_only_with_typed_errors(head, first, more, tail):
    """Near-miss statements either parse or raise SqlSyntaxError; whatever
    parses executes or raises a typed engine error -- never a KeyError,
    AttributeError or TypeError."""
    rest = " ".join(f"{join} {comparison}" for join, comparison in more)
    sql = f"{head} {first} {rest} {tail}"
    try:
        parse(sql)
    except SqlSyntaxError:
        return
    engine = build_engine([(1, 2), (3, 4)])
    try:
        engine.execute(sql, {"p": 1})
    except ProRPError:
        pass
