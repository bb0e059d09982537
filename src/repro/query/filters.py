"""Predicate AST for hybrid queries (paper §3.5).

Clients express structured attribute constraints as a small expression
tree over their declared attributes:

- comparisons ``=, !=, <, <=, >, >=`` (:class:`Compare`),
- set membership (:class:`In`), null tests (:class:`IsNull`),
- inclusive ranges (:class:`Between`),
- full-text ``MATCH`` over FTS-enabled text attributes (:class:`Match`),
- conjunction / disjunction / negation.

Every node compiles to a parameterized SQL fragment over the
``attributes`` table (values only ever travel as bound parameters, never
spliced into SQL), can be evaluated directly against a Python attribute
mapping (:meth:`Predicate.evaluate`), **and** — every node but
:class:`Match` — can be evaluated with NumPy over a partition's
:class:`AttributeColumn` arrays (:meth:`Predicate.mask`), which is how
the post-filter plan masks a partition while scanning it. The three
implementations are deliberate: property tests generate random
predicates and random rows and check that SQLite, the per-row evaluator
and the columnar one agree, which pins down the semantics of the filter
language. Where NumPy could not reproduce SQLite exactly (``TEXT``
ordering, a column of mixed storage classes, integers beyond 2^53 met
by floats) the columnar evaluator raises :class:`ColumnarUnsupported`
instead of approximating, and the caller evaluates through SQL.

Convenience constructors (``Eq``, ``Lt``, ...) keep call sites readable:

    from repro import Eq, And, Gt
    db.search(q, k=10, filters=And(Eq("location", "Seattle"),
                                   Gt("timestamp", 1700000000)))
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.errors import FilterError, UnknownAttributeError
from repro.storage.cache import FLOAT_EXACT_INT, AttributeColumn

#: Comparison operators: the SQL spelling, and the function both the
#: per-row and the columnar evaluator apply.
_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_INT64_MAX = 2**63 - 1

#: What :meth:`Predicate.mask` evaluates over: a partition's attribute
#: columns by name, None for one that could not be typed.
Columns = Mapping[str, AttributeColumn | None]

#: Default tokenizer: lower-cased alphanumeric runs. Shared with the
#: FTS substrate so MATCH semantics and df statistics line up.
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def default_tokenizer(text: str) -> list[str]:
    """Lower-case alphanumeric tokenizer used for MATCH and the token index."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class CompileContext:
    """Everything predicate compilation needs to know about the schema."""

    attributes: Mapping[str, str]
    fts_attributes: tuple[str, ...] = ()
    use_fts5: bool = False
    tokenizer: Callable[[str], list[str]] = default_tokenizer

    def check_attribute(self, name: str) -> None:
        if name not in self.attributes:
            raise UnknownAttributeError(name, tuple(self.attributes))

    def check_fts_attribute(self, name: str) -> None:
        self.check_attribute(name)
        if name not in self.fts_attributes:
            raise FilterError(
                f"attribute {name!r} is not FTS-enabled; declare it in "
                "MicroNNConfig.fts_attributes to use MATCH"
            )


class ColumnarUnsupported(Exception):
    """NumPy cannot evaluate this predicate over these columns exactly
    as SQLite would; the message names the node or column at fault and
    the caller evaluates through SQL instead."""


def _literal(
    column: AttributeColumn, value: object, ordered: bool = False
) -> object:
    """``value`` as a literal NumPy compares against ``column.values``
    with SQLite's result, else :class:`ColumnarUnsupported`.

    Same-class comparisons are exact in both. An integer meeting a
    float is compared in float64, which is exact only while the
    integer side stays within 2^53. Bools compare as 0/1, as SQLite
    stores them. NaN binds as NULL in SQLite and is left to it, like a
    literal of the wrong class for the column.
    """
    values = column.values
    if values.dtype == object:
        if ordered:
            raise ColumnarUnsupported("TEXT ordering")
        if isinstance(value, str):
            return value
    elif isinstance(value, bool):
        return int(value)
    elif type(value) is int:
        exact = values.dtype == np.int64
        if abs(value) <= (_INT64_MAX if exact else FLOAT_EXACT_INT):
            return value
    elif isinstance(value, float) and value == value:
        # NumPy compares an int64 column to a float as float64.
        if values.dtype == np.float64 or not len(values) or (
            -FLOAT_EXACT_INT <= values.min()
            and values.max() <= FLOAT_EXACT_INT
        ):
            return value
    raise ColumnarUnsupported(
        f"literal {value!r} against {values.dtype} values"
    )


class Predicate:
    """Base class for all filter nodes."""

    def to_sql(self, ctx: CompileContext) -> tuple[str, list[object]]:
        """Compile to (parameterized WHERE fragment, parameter list)."""
        raise NotImplementedError

    def evaluate(
        self, row: Mapping[str, object], ctx: CompileContext
    ) -> bool:
        """Evaluate directly against a row's attribute values."""
        raise NotImplementedError

    def mask(self, columns: Columns) -> np.ndarray:
        """Evaluate over aligned attribute columns: the boolean mask of
        the rows this predicate is TRUE for.

        Rows it is FALSE or UNKNOWN (NULL) for are both cleared, which
        is all a ``WHERE`` needs. :class:`Not` is the one node that
        could turn UNKNOWN into TRUE, and it carries the same
        ``IS NOT NULL`` guards as its SQL: under them its child is
        never UNKNOWN, so one mask per node is three-valued logic
        enough. Raises :class:`ColumnarUnsupported` where only SQL
        gives SQLite's answer.
        """
        raise NotImplementedError

    def attributes_referenced(self) -> frozenset[str]:
        """Attribute names this predicate touches (optimizer input)."""
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "And":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _column(columns: Columns, name: str) -> AttributeColumn:
    column = columns[name]
    if column is None:
        raise ColumnarUnsupported(f"mixed storage classes in {name!r}")
    return column


@dataclass(frozen=True)
class Compare(Predicate):
    """Binary comparison between an attribute and a constant."""

    attribute: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise FilterError(
                f"unsupported operator {self.op!r}; "
                f"supported: {sorted(_OPS)}"
            )
        if self.value is None:
            raise FilterError(
                "comparisons against None are undefined; use IsNull"
            )

    def to_sql(self, ctx: CompileContext) -> tuple[str, list[object]]:
        ctx.check_attribute(self.attribute)
        return f"{_quote(self.attribute)} {self.op} ?", [self.value]

    def evaluate(
        self, row: Mapping[str, object], ctx: CompileContext
    ) -> bool:
        ctx.check_attribute(self.attribute)
        actual = row.get(self.attribute)
        if actual is None:
            # SQL three-valued logic: NULL compares to nothing.
            return False
        try:
            return bool(_OPS[self.op](actual, self.value))
        except TypeError as exc:
            raise FilterError(
                f"cannot compare {actual!r} {self.op} {self.value!r}"
            ) from exc

    def mask(self, columns: Columns) -> np.ndarray:
        column = _column(columns, self.attribute)
        literal = _literal(
            column, self.value, ordered=self.op not in ("=", "!=")
        )
        return column.where_valid(_OPS[self.op](column.values, literal))

    def attributes_referenced(self) -> frozenset[str]:
        return frozenset({self.attribute})


@dataclass(frozen=True)
class Between(Predicate):
    """Inclusive range test: low <= attribute <= high."""

    attribute: str
    low: object
    high: object

    def __post_init__(self) -> None:
        if self.low is None or self.high is None:
            raise FilterError("Between bounds must not be None")

    def to_sql(self, ctx: CompileContext) -> tuple[str, list[object]]:
        ctx.check_attribute(self.attribute)
        return (
            f"{_quote(self.attribute)} BETWEEN ? AND ?",
            [self.low, self.high],
        )

    def evaluate(
        self, row: Mapping[str, object], ctx: CompileContext
    ) -> bool:
        ctx.check_attribute(self.attribute)
        actual = row.get(self.attribute)
        if actual is None:
            return False
        try:
            in_range = (  # type: ignore[operator]
                self.low <= actual <= self.high
            )
            return bool(in_range)
        except TypeError as exc:
            raise FilterError(
                f"cannot range-compare {actual!r} against "
                f"[{self.low!r}, {self.high!r}]"
            ) from exc

    def mask(self, columns: Columns) -> np.ndarray:
        column = _column(columns, self.attribute)
        low = _literal(column, self.low, ordered=True)
        high = _literal(column, self.high, ordered=True)
        values = column.values
        return column.where_valid((values >= low) & (values <= high))

    def attributes_referenced(self) -> frozenset[str]:
        return frozenset({self.attribute})


@dataclass(frozen=True)
class In(Predicate):
    """Set membership test."""

    attribute: str
    values: tuple[object, ...]

    def __init__(self, attribute: str, values: Sequence[object]) -> None:
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "values", tuple(values))
        if not self.values:
            raise FilterError("In requires at least one value")
        if any(v is None for v in self.values):
            raise FilterError("In values must not contain None")

    def to_sql(self, ctx: CompileContext) -> tuple[str, list[object]]:
        ctx.check_attribute(self.attribute)
        placeholders = ", ".join("?" for _ in self.values)
        return (
            f"{_quote(self.attribute)} IN ({placeholders})",
            list(self.values),
        )

    def evaluate(
        self, row: Mapping[str, object], ctx: CompileContext
    ) -> bool:
        ctx.check_attribute(self.attribute)
        actual = row.get(self.attribute)
        if actual is None:
            return False
        return actual in self.values

    def mask(self, columns: Columns) -> np.ndarray:
        column = _column(columns, self.attribute)
        # One equality per listed value rather than np.isin, which
        # would first coerce the list to one dtype (ints to float64).
        return column.where_valid(
            reduce(
                operator.or_,
                (column.values == _literal(column, v) for v in self.values),
            )
        )

    def attributes_referenced(self) -> frozenset[str]:
        return frozenset({self.attribute})


@dataclass(frozen=True)
class IsNull(Predicate):
    """NULL test (or its negation)."""

    attribute: str
    negate: bool = False

    def to_sql(self, ctx: CompileContext) -> tuple[str, list[object]]:
        ctx.check_attribute(self.attribute)
        suffix = "IS NOT NULL" if self.negate else "IS NULL"
        return f"{_quote(self.attribute)} {suffix}", []

    def evaluate(
        self, row: Mapping[str, object], ctx: CompileContext
    ) -> bool:
        ctx.check_attribute(self.attribute)
        is_null = row.get(self.attribute) is None
        return not is_null if self.negate else is_null

    def mask(self, columns: Columns) -> np.ndarray:
        column = _column(columns, self.attribute)
        not_null = column.where_valid(np.ones(len(column.values), bool))
        return not_null if self.negate else ~not_null

    def attributes_referenced(self) -> frozenset[str]:
        return frozenset({self.attribute})


@dataclass(frozen=True)
class Match(Predicate):
    """Full-text MATCH: all query tokens must appear in the attribute.

    Compiles to a semi-join against the FTS5 mirror when available, or
    against the library's own inverted token table otherwise; both have
    conjunctive bag-of-tokens semantics (paper §4.3.1 encodes Big-ANN
    tag filters exactly this way).
    """

    attribute: str
    query: str

    def to_sql(self, ctx: CompileContext) -> tuple[str, list[object]]:
        ctx.check_fts_attribute(self.attribute)
        tokens = ctx.tokenizer(self.query)
        if not tokens:
            raise FilterError(
                f"MATCH query {self.query!r} has no indexable tokens"
            )
        if ctx.use_fts5:
            fts_query = " AND ".join(
                f'{_quote(self.attribute)} : "{tok}"' for tok in tokens
            )
            return (
                "asset_id IN (SELECT asset_id FROM attributes_fts "
                "WHERE attributes_fts MATCH ?)",
                [fts_query],
            )
        clauses = []
        params: list[object] = []
        for tok in tokens:
            clauses.append(
                "asset_id IN (SELECT asset_id FROM tokens "
                "WHERE attribute=? AND token=?)"
            )
            params.extend([self.attribute, tok])
        return "(" + " AND ".join(clauses) + ")", params

    def evaluate(
        self, row: Mapping[str, object], ctx: CompileContext
    ) -> bool:
        ctx.check_fts_attribute(self.attribute)
        text = row.get(self.attribute)
        if text is None:
            return False
        doc_tokens = set(ctx.tokenizer(str(text)))
        query_tokens = ctx.tokenizer(self.query)
        if not query_tokens:
            raise FilterError(
                f"MATCH query {self.query!r} has no indexable tokens"
            )
        return all(tok in doc_tokens for tok in query_tokens)

    def mask(self, columns: Columns) -> np.ndarray:
        raise ColumnarUnsupported("Match")

    def attributes_referenced(self) -> frozenset[str]:
        return frozenset({self.attribute})


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of two or more predicates."""

    children: tuple[Predicate, ...]

    def __init__(self, *children: Predicate) -> None:
        flat: list[Predicate] = []
        for child in children:
            if isinstance(child, And):
                flat.extend(child.children)
            else:
                flat.append(child)
        if len(flat) < 2:
            raise FilterError("And requires at least two children")
        object.__setattr__(self, "children", tuple(flat))

    def to_sql(self, ctx: CompileContext) -> tuple[str, list[object]]:
        parts, params = _compile_children(self.children, ctx)
        return "(" + " AND ".join(parts) + ")", params

    def evaluate(
        self, row: Mapping[str, object], ctx: CompileContext
    ) -> bool:
        return all(c.evaluate(row, ctx) for c in self.children)

    def mask(self, columns: Columns) -> np.ndarray:
        return reduce(
            operator.and_, (c.mask(columns) for c in self.children)
        )

    def attributes_referenced(self) -> frozenset[str]:
        return frozenset().union(
            *(c.attributes_referenced() for c in self.children)
        )


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of two or more predicates."""

    children: tuple[Predicate, ...]

    def __init__(self, *children: Predicate) -> None:
        flat: list[Predicate] = []
        for child in children:
            if isinstance(child, Or):
                flat.extend(child.children)
            else:
                flat.append(child)
        if len(flat) < 2:
            raise FilterError("Or requires at least two children")
        object.__setattr__(self, "children", tuple(flat))

    def to_sql(self, ctx: CompileContext) -> tuple[str, list[object]]:
        parts, params = _compile_children(self.children, ctx)
        return "(" + " OR ".join(parts) + ")", params

    def evaluate(
        self, row: Mapping[str, object], ctx: CompileContext
    ) -> bool:
        return any(c.evaluate(row, ctx) for c in self.children)

    def mask(self, columns: Columns) -> np.ndarray:
        return reduce(
            operator.or_, (c.mask(columns) for c in self.children)
        )

    def attributes_referenced(self) -> frozenset[str]:
        return frozenset().union(
            *(c.attributes_referenced() for c in self.children)
        )


@dataclass(frozen=True)
class Not(Predicate):
    """Negation. NULL attribute values stay excluded (SQL semantics)."""

    child: Predicate

    def to_sql(self, ctx: CompileContext) -> tuple[str, list[object]]:
        sql, params = self.child.to_sql(ctx)
        # SQL's NOT over a NULL comparison yields NULL (row excluded),
        # matching the Python evaluator's treatment below only if the
        # referenced attributes are non-NULL. Guard with IS NOT NULL so
        # both implementations agree on rows with missing values.
        guards = [
            f"{_quote(name)} IS NOT NULL"
            for name in sorted(self.child.attributes_referenced())
        ]
        guard_sql = " AND ".join(guards)
        return f"({guard_sql} AND NOT {sql})", params

    def evaluate(
        self, row: Mapping[str, object], ctx: CompileContext
    ) -> bool:
        for name in self.child.attributes_referenced():
            ctx.check_attribute(name)
            if row.get(name) is None:
                return False
        return not self.child.evaluate(row, ctx)

    def mask(self, columns: Columns) -> np.ndarray:
        result = ~self.child.mask(columns)
        for name in self.child.attributes_referenced():
            result = _column(columns, name).where_valid(result)
        return result

    def attributes_referenced(self) -> frozenset[str]:
        return self.child.attributes_referenced()


def _compile_children(
    children: tuple[Predicate, ...], ctx: CompileContext
) -> tuple[list[str], list[object]]:
    parts: list[str] = []
    params: list[object] = []
    for child in children:
        sql, child_params = child.to_sql(ctx)
        parts.append(sql)
        params.extend(child_params)
    return parts, params


def columnar_fallback_reason(
    predicate: Predicate, ctx: CompileContext
) -> str | None:
    """Why ``predicate`` needs SQL, or None when :meth:`Predicate.mask`
    can evaluate it over attribute columns.

    Decided by evaluating it over zero-row columns of the declared
    types, so the rules live in ``mask`` alone. Stored values can still
    surprise a scan later (a mixed-class column, large integers among
    floats); ``mask`` raises then too. Unknown attributes raise here,
    as they would from ``to_sql``.
    """
    dtypes = {"INTEGER": np.int64, "REAL": np.float64, "TEXT": object}
    columns = {}
    for name in predicate.attributes_referenced():
        ctx.check_attribute(name)
        declared = ctx.attributes[name].upper()
        columns[name] = AttributeColumn(np.empty(0, dtype=dtypes[declared]))
    try:
        predicate.mask(columns)
    except ColumnarUnsupported as exc:
        return str(exc)
    return None


# ----------------------------------------------------------------------
# Convenience constructors (the public filter-building API)
# ----------------------------------------------------------------------


def Eq(attribute: str, value: object) -> Compare:
    """attribute = value"""
    return Compare(attribute, "=", value)


def Ne(attribute: str, value: object) -> Compare:
    """attribute != value"""
    return Compare(attribute, "!=", value)


def Lt(attribute: str, value: object) -> Compare:
    """attribute < value"""
    return Compare(attribute, "<", value)


def Le(attribute: str, value: object) -> Compare:
    """attribute <= value"""
    return Compare(attribute, "<=", value)


def Gt(attribute: str, value: object) -> Compare:
    """attribute > value"""
    return Compare(attribute, ">", value)


def Ge(attribute: str, value: object) -> Compare:
    """attribute >= value"""
    return Compare(attribute, ">=", value)
