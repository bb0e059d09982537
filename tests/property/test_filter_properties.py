"""Property-based agreement between SQL, per-row and columnar predicate
semantics.

Random predicate trees are compiled to SQL and run on SQLite, evaluated
row by row in Python, and evaluated with NumPy over attribute columns
read back from the same table. Any divergence is a semantics bug in
the filter language — this is the test that pins down NULL handling,
negation scope, int/float comparison and MATCH token logic. Where the
columnar evaluator cannot give SQLite's answer it must say so
(``ColumnarUnsupported``), never guess.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.filters import (
    And,
    AttributeColumn,
    Between,
    ColumnarUnsupported,
    CompileContext,
    Eq,
    Ge,
    Gt,
    In,
    IsNull,
    Le,
    Lt,
    Match,
    Ne,
    Not,
    Or,
    columnar_fallback_reason,
    default_tokenizer,
)

CTX = CompileContext(
    attributes={
        "color": "TEXT",
        "n": "INTEGER",
        "tags": "TEXT",
        "r": "REAL",
        "big": "INTEGER",
    },
    fts_attributes=("tags",),
    use_fts5=False,
)

colors = st.sampled_from(["red", "green", "blue", "teal"])
ints = st.integers(min_value=-20, max_value=20)
tag_words = st.sampled_from(["cat", "dog", "elk", "fox"])
#: Halves are exact in float64 and land between the integers.
halves = st.integers(min_value=-41, max_value=41).map(lambda i: i / 2)
numbers = st.one_of(ints, halves, st.booleans())
#: Integers float64 cannot tell apart, a few on each side of 2^53.
big_ints = st.sampled_from(
    [sign * (2**53 + d) for sign in (1, -1) for d in (-1, 0, 1, 2, 3)]
    + [2**62, -(2**62), 7]
)


@st.composite
def rows(draw):
    return {
        "asset_id": draw(st.uuids()).hex,
        "color": draw(st.one_of(st.none(), colors)),
        # An INTEGER column keeps a float it cannot convert exactly.
        "n": draw(st.one_of(st.none(), ints, ints, halves)),
        "tags": draw(
            st.one_of(
                st.none(),
                st.lists(tag_words, min_size=1, max_size=3).map(" ".join),
            )
        ),
        "r": draw(st.one_of(st.none(), halves)),
        "big": draw(st.one_of(st.none(), big_ints)),
    }


@st.composite
def leaf_predicates(draw):
    kind = draw(st.integers(min_value=0, max_value=6))
    if kind == 0:
        return Eq("color", draw(colors))
    if kind == 1:
        return Ne("color", draw(colors))
    if kind == 2:
        op = draw(st.sampled_from([Lt, Le, Gt, Ge]))
        return op("n", draw(ints))
    if kind == 3:
        low, high = sorted([draw(ints), draw(ints)])
        return Between("n", low, high)
    if kind == 4:
        values = draw(st.lists(colors, min_size=1, max_size=3))
        return In("color", values)
    if kind == 5:
        return IsNull(
            draw(st.sampled_from(["color", "n", "tags"])),
            negate=draw(st.booleans()),
        )
    words = draw(st.lists(tag_words, min_size=1, max_size=2))
    return Match("tags", " ".join(words))


predicates = st.recursive(
    leaf_predicates(),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda p: And(*p)),
        st.tuples(children, children).map(lambda p: Or(*p)),
        children.map(Not),
    ),
    max_leaves=6,
)


def open_table(table_rows) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    declared = ", ".join(f"{n} {t}" for n, t in CTX.attributes.items())
    conn.execute(
        f"CREATE TABLE attributes (asset_id TEXT PRIMARY KEY, {declared})"
    )
    conn.execute(
        "CREATE TABLE tokens (attribute TEXT, token TEXT, asset_id TEXT)"
    )
    for row in table_rows:
        conn.execute(
            "INSERT INTO attributes VALUES (?, ?, ?, ?, ?, ?)",
            [row["asset_id"], *(row.get(n) for n in CTX.attributes)],
        )
        if row["tags"]:
            for tok in set(default_tokenizer(row["tags"])):
                conn.execute(
                    "INSERT INTO tokens VALUES ('tags', ?, ?)",
                    (tok, row["asset_id"]),
                )
    return conn


def sql_ids(conn, predicate) -> set[str]:
    sql, params = predicate.to_sql(CTX)
    return {
        r[0]
        for r in conn.execute(
            f"SELECT asset_id FROM attributes WHERE {sql}", params
        )
    }


def run_sqlite(predicate, table_rows) -> set[str]:
    conn = open_table(table_rows)
    result = sql_ids(conn, predicate)
    conn.close()
    return result


def scanned_sql_ids(conn, predicate, ids) -> set[str]:
    """The predicate over a scanned partition's rows: ``ids`` joined
    to their attributes, a row without any NULL throughout. (The
    engine writes an attributes row with every vector of a declared
    schema, so its ``SELECT ... FROM attributes`` fallback sees the
    same rows.)"""
    conn.execute("CREATE TEMP TABLE scanned (asset_id TEXT PRIMARY KEY)")
    conn.executemany("INSERT INTO scanned VALUES (?)", [(i,) for i in ids])
    sql, params = predicate.to_sql(CTX)
    found = {
        r[0]
        for r in conn.execute(
            "SELECT asset_id FROM scanned LEFT JOIN attributes "
            f"USING (asset_id) WHERE {sql}",
            params,
        )
    }
    conn.execute("DROP TABLE scanned")
    return found


def columnar_ids(conn, predicate, ids) -> set[str]:
    """``predicate.mask`` over columns read back from the table the way
    the engine reads them: stored values, aligned to ``ids``, an id
    with no attributes row NULL throughout."""
    names = sorted(predicate.attributes_referenced())
    stored = {
        row[0]: row[1:]
        for row in conn.execute(
            f"SELECT asset_id, {', '.join(names)} FROM attributes"
        )
    }
    absent = (None,) * len(names)
    aligned = [stored.get(asset_id, absent) for asset_id in ids]
    columns = {
        name: AttributeColumn.from_values(
            [row[i] for row in aligned], CTX.attributes[name]
        )
        for i, name in enumerate(names)
    }
    mask = predicate.mask(columns)
    assert mask.dtype == bool and mask.shape == (len(ids),)
    return {asset_id for asset_id, keep in zip(ids, mask) if keep}


@st.composite
def columnar_leaves(draw):
    """Leaves the columnar evaluator must handle: numbers of either
    class against either numeric column, TEXT equality, NULL tests."""
    kind = draw(st.integers(min_value=0, max_value=6))
    numeric = draw(st.sampled_from(["n", "r"]))
    if kind == 0:
        return draw(st.sampled_from([Eq, Ne]))("color", draw(colors))
    if kind == 1:
        return In("color", draw(st.lists(colors, min_size=1, max_size=3)))
    if kind == 2:
        op = draw(st.sampled_from([Lt, Le, Gt, Ge, Eq, Ne]))
        return op(numeric, draw(numbers))
    if kind == 3:
        low, high = sorted([draw(numbers), draw(numbers)])
        return Between(numeric, low, high)
    if kind == 4:
        return In(numeric, draw(st.lists(numbers, min_size=1, max_size=3)))
    if kind == 5:
        op = draw(st.sampled_from([Lt, Le, Gt, Ge, Eq, Ne]))
        return op("big", draw(big_ints))
    return IsNull(
        draw(st.sampled_from(["color", "n", "r", "big"])),
        negate=draw(st.booleans()),
    )


def trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda p: And(*p)),
            st.tuples(children, children).map(lambda p: Or(*p)),
            children.map(Not),
        ),
        max_leaves=6,
    )


@st.composite
def surprising_leaves(draw):
    """Leaves only SQL answers, beside ones the columns can."""
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return Match("tags", draw(tag_words))
    if kind == 1:  # TEXT ordering
        return draw(st.sampled_from([Lt, Ge]))("color", draw(colors))
    if kind == 2:  # float64 cannot order these against a float
        return draw(st.sampled_from([Lt, Ge, Eq]))(
            "big", float(draw(big_ints))
        )
    if kind == 3:  # nor a float column against these
        return draw(st.sampled_from([Lt, Ge, Eq]))("r", draw(big_ints))
    return draw(columnar_leaves())


class TestSqlPythonAgreement:
    @given(predicates, st.lists(rows(), min_size=0, max_size=25,
                                unique_by=lambda r: r["asset_id"]))
    @settings(max_examples=250, deadline=None)
    def test_sql_equals_python(self, predicate, table_rows):
        sql_ids = run_sqlite(predicate, table_rows)
        py_ids = {
            row["asset_id"]
            for row in table_rows
            if predicate.evaluate(row, CTX)
        }
        assert sql_ids == py_ids

    @given(
        trees(columnar_leaves()),
        st.lists(rows(), max_size=25, unique_by=lambda r: r["asset_id"]),
        st.lists(st.uuids().map(lambda u: u.hex), max_size=3, unique=True),
    )
    @settings(max_examples=400, deadline=None)
    def test_sql_python_and_columnar_agree(
        self, predicate, table_rows, rowless
    ):
        """Three implementations, one answer — over NULLs, ids with no
        attributes row, ``Not`` scope, int/float literal mixes, TEXT
        ``Eq``/``Ne``/``In`` and integers beyond 2^53."""
        assert columnar_fallback_reason(predicate, CTX) is None
        conn = open_table(table_rows)
        ids = [row["asset_id"] for row in table_rows] + rowless
        expected = scanned_sql_ids(conn, predicate, ids)
        stored = {
            row[0]: dict(zip(CTX.attributes, row[1:]))
            for row in conn.execute("SELECT * FROM attributes")
        }
        assert expected == {
            asset_id
            for asset_id in ids
            if predicate.evaluate(stored.get(asset_id, {}), CTX)
        }
        assert expected == columnar_ids(conn, predicate, ids)
        conn.close()

    @given(
        trees(surprising_leaves()),
        st.lists(rows(), max_size=25, unique_by=lambda r: r["asset_id"]),
        st.sampled_from([None, "word", b"blob"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_columnar_reports_what_it_cannot_evaluate(
        self, predicate, table_rows, stray
    ):
        """MATCH, TEXT ordering, integers beyond 2^53 met by floats and
        a column of mixed storage classes: the columnar evaluator
        either gives SQLite's answer or raises — it never guesses."""
        if stray is not None and table_rows:
            # A value INTEGER affinity cannot convert: the column now
            # holds two storage classes.
            table_rows[0]["n"] = stray
        conn = open_table(table_rows)
        ids = [row["asset_id"] for row in table_rows]
        try:
            found = columnar_ids(conn, predicate, ids)
        except ColumnarUnsupported:
            pass
        else:
            assert found == sql_ids(conn, predicate)
        conn.close()

    @given(predicates)
    @settings(max_examples=100, deadline=None)
    def test_compilation_is_parameterized(self, predicate):
        """No literal *values* may leak into the SQL text.

        Attribute names are exempt: the token-table MATCH path binds the
        attribute name as a parameter while the same name also appears
        (quoted) as a column identifier.
        """
        sql, params = predicate.to_sql(CTX)
        for value in params:
            if (
                isinstance(value, str)
                and len(value) > 2
                and value not in CTX.attributes
            ):
                assert value not in sql

    @given(predicates, st.lists(rows(), min_size=1, max_size=10,
                                unique_by=lambda r: r["asset_id"]))
    @settings(max_examples=100, deadline=None)
    def test_negation_is_complement_over_non_null(self, predicate,
                                                  table_rows):
        """For rows with no NULLs in referenced attributes, NOT(p) must
        select exactly the complement of p."""
        referenced = predicate.attributes_referenced()
        full_rows = [
            r
            for r in table_rows
            if all(r.get(a) is not None for a in referenced)
        ]
        selected = {
            r["asset_id"] for r in full_rows if predicate.evaluate(r, CTX)
        }
        negated = {
            r["asset_id"]
            for r in full_rows
            if Not(predicate).evaluate(r, CTX)
        }
        universe = {r["asset_id"] for r in full_rows}
        assert selected | negated == universe
        assert selected & negated == set()


class TestColumnTyping:
    """``AttributeColumn.from_values``: what each storage mix becomes."""

    def test_storage_classes(self):
        ints = AttributeColumn.from_values([3, None, -1], "INTEGER")
        assert ints.values.dtype == np.int64
        assert ints.valid.tolist() == [True, False, True]
        assert AttributeColumn.from_values([1, 2], "INTEGER").valid is None
        floats = AttributeColumn.from_values([1, 2.5, None], "INTEGER")
        assert floats.values.dtype == np.float64
        text = AttributeColumn.from_values(["a", None], "TEXT")
        assert text.values.dtype == object and text.values[0] == "a"
        empty = AttributeColumn.from_values([], "REAL")
        assert len(empty.values) == 0

    @pytest.mark.parametrize(
        "values, declared",
        [
            ([1, "word"], "INTEGER"),  # text INTEGER affinity kept
            ([1.5, b"blob"], "REAL"),
            (["a", b"blob"], "TEXT"),
            ([2**53 + 1, 0.5], "INTEGER"),  # float64 would round it
        ],
    )
    def test_mixed_storage_classes_are_not_typed(self, values, declared):
        assert AttributeColumn.from_values(values, declared) is None
        column = {"n": AttributeColumn.from_values(values, declared)}
        with pytest.raises(ColumnarUnsupported, match="mixed storage"):
            IsNull("n").mask(column)

    def test_fallback_reason_names_the_node(self):
        assert columnar_fallback_reason(Match("tags", "cat"), CTX) == "Match"
        assert (
            columnar_fallback_reason(Lt("color", "red"), CTX)
            == "TEXT ordering"
        )
        assert columnar_fallback_reason(Lt("n", 3) & Eq("r", 1), CTX) is None
        assert columnar_fallback_reason(Eq("n", "3"), CTX) is not None
        assert columnar_fallback_reason(Eq("n", float("nan")), CTX)
