"""Boolean-valued expressions: comparisons, IN, BETWEEN, LIKE, AND/OR/NOT.

Predicates are ordinary :class:`~repro.relational.expressions.Expr` nodes
whose output dtype is BOOL, so they compose freely with the scalar
expression machinery and with ``Relation.filter``.

Code-space evaluation
---------------------
When a predicate compares a dictionary-encoded TEXT column (see
``Relation.encoding``) against constants, it is evaluated in *code space*:
the operator runs once per distinct vocabulary entry (k values) and the
resulting k-bit mask broadcasts through the int32 codes with a single
gather — no per-row string comparison ever happens.  Because the vocab is
sorted, this is exact for ordering operators too (lexicographic).  TEXT
columns without a stored encoding fall back to one vectorized ``str`` cast
plus a numpy comparison over the cast arrays.
"""

from __future__ import annotations

import re
from typing import Any, Sequence

import numpy as np

from repro.errors import TypeMismatchError
from repro.relational.dtypes import DType
from repro.relational.expressions import ColumnRef, Expr, Literal, sql_constant
from repro.relational.relation import Relation
from repro.relational.schema import Schema

_COMPARISON_OPS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_ORDER_OPS = frozenset(["<", "<=", ">", ">="])

# ``literal <op> column`` rewritten as ``column <flipped op> literal``.
_FLIPPED_OPS = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _text_cast(array: np.ndarray) -> np.ndarray:
    """One vectorized cast of an object array to a numpy unicode array."""
    return array.astype(str)


def _encoded_column(
    expr: Expr, relation: Relation
) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``(vocab, codes)`` encoding behind a plain column reference."""
    if isinstance(expr, ColumnRef):
        return relation.encoding(expr.name)
    return None


class Comparison(Expr):
    """``left <op> right`` producing a boolean mask.

    Equality works for every type; ordering comparisons require both sides
    numeric or both sides TEXT (lexicographic).
    """

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _COMPARISON_OPS:
            raise TypeMismatchError(f"unknown comparison operator: {op!r}")
        self.op = "!=" if op == "<>" else op
        self.left = left
        self.right = right

    def evaluate(self, relation: Relation) -> np.ndarray:
        mask = self._evaluate_codespace(relation)
        if mask is not None:
            return mask
        left = self.left.evaluate(relation)
        right = self.right.evaluate(relation)
        left_is_text = left.dtype == object
        right_is_text = right.dtype == object
        if left_is_text != right_is_text:
            raise TypeMismatchError(
                f"cannot compare TEXT with non-TEXT in {self.to_sql()}"
            )
        if left_is_text:
            left = _text_cast(left)
            right = _text_cast(right)
        return _COMPARISON_OPS[self.op](left, right)

    def _evaluate_codespace(self, relation: Relation) -> np.ndarray | None:
        """Column-vs-constant over an encoded column: O(k) + one gather."""
        op = self.op
        if isinstance(self.left, ColumnRef) and isinstance(self.right, Literal):
            column, literal = self.left, self.right
        elif isinstance(self.right, ColumnRef) and isinstance(self.left, Literal):
            column, literal = self.right, self.left
            op = _FLIPPED_OPS[op]
        else:
            return None
        encoding = relation.encoding(column.name)
        if encoding is None:
            return None
        if not isinstance(literal.value, str):
            raise TypeMismatchError(
                f"cannot compare TEXT with non-TEXT in {self.to_sql()}"
            )
        vocab, codes = encoding
        vocab_mask = np.asarray(_COMPARISON_OPS[op](vocab, literal.value), dtype=bool)
        return vocab_mask[codes]

    def output_dtype(self, schema: Schema) -> DType:
        left = self.left.output_dtype(schema)
        right = self.right.output_dtype(schema)
        if (left is DType.TEXT) != (right is DType.TEXT):
            raise TypeMismatchError(f"cannot compare TEXT with non-TEXT in {self.to_sql()}")
        return DType.BOOL

    def referenced_columns(self) -> frozenset[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


class InList(Expr):
    """``expr IN (v1, v2, ...)`` (or NOT IN)."""

    def __init__(self, operand: Expr, values: Sequence[Any], negated: bool = False):
        self.operand = operand
        self.values = tuple(values)
        self.negated = negated

    def evaluate(self, relation: Relation) -> np.ndarray:
        encoding = _encoded_column(self.operand, relation)
        if encoding is not None:
            vocab, codes = encoding
            wanted = {str(v) for v in self.values}
            vocab_mask = np.fromiter(
                (v in wanted for v in vocab), dtype=bool, count=vocab.size
            )
            mask = vocab_mask[codes]
        else:
            column = self.operand.evaluate(relation)
            if column.dtype == object:
                wanted_arr = np.asarray([str(v) for v in self.values], dtype=str)
                mask = np.isin(_text_cast(column), wanted_arr)
            else:
                values = np.asarray(self.values)
                if values.size and not (
                    np.issubdtype(values.dtype, np.number)
                    or values.dtype == np.bool_
                ):
                    # np.isin would otherwise compare through a silent
                    # upcast (mixed lists become strings under numpy 2),
                    # matching nothing instead of failing loudly.
                    raise TypeMismatchError(
                        f"IN list over a non-TEXT operand must be all-numeric "
                        f"in {self.to_sql()}"
                    )
                mask = np.isin(column, values)
        return ~mask if self.negated else mask

    def output_dtype(self, schema: Schema) -> DType:
        return DType.BOOL

    def referenced_columns(self) -> frozenset[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        rendered = ", ".join(sql_constant(v) for v in self.values)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.to_sql()} {keyword} ({rendered}))"


class Between(Expr):
    """``expr BETWEEN low AND high`` — inclusive on both ends, per SQL."""

    def __init__(self, operand: Expr, low: Expr, high: Expr, negated: bool = False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def evaluate(self, relation: Relation) -> np.ndarray:
        mask = self._evaluate_codespace(relation)
        if mask is None:
            values = self.operand.evaluate(relation)
            low = self.low.evaluate(relation)
            high = self.high.evaluate(relation)
            if values.dtype == object and low.dtype == object and high.dtype == object:
                values = _text_cast(values)
                low = _text_cast(low)
                high = _text_cast(high)
            mask = (values >= low) & (values <= high)
        return ~mask if self.negated else mask

    def _evaluate_codespace(self, relation: Relation) -> np.ndarray | None:
        if not (isinstance(self.low, Literal) and isinstance(self.high, Literal)):
            return None
        if not (isinstance(self.low.value, str) and isinstance(self.high.value, str)):
            return None
        encoding = _encoded_column(self.operand, relation)
        if encoding is None:
            return None
        vocab, codes = encoding
        vocab_mask = np.asarray(
            (vocab >= self.low.value) & (vocab <= self.high.value), dtype=bool
        )
        return vocab_mask[codes]

    def output_dtype(self, schema: Schema) -> DType:
        return DType.BOOL

    def referenced_columns(self) -> frozenset[str]:
        return (
            self.operand.referenced_columns()
            | self.low.referenced_columns()
            | self.high.referenced_columns()
        )

    def to_sql(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand.to_sql()} {keyword} {self.low.to_sql()} AND {self.high.to_sql()})"


class Like(Expr):
    """``expr LIKE 'pattern'`` — SQL wildcards ``%`` (any run) and ``_`` (one char).

    The pattern compiles to a regex once at construction.  Over an encoded
    column the regex runs once per distinct vocab entry and the result
    broadcasts through the codes; the fallback matches the column's
    memoized dictionary uniques, so even un-encoded columns pay k regex
    calls, not n.
    """

    def __init__(self, operand: Expr, pattern: str, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self._regex = re.compile(_like_to_regex(pattern), re.DOTALL)

    def evaluate(self, relation: Relation) -> np.ndarray:
        match = self._regex.fullmatch
        encoding = _encoded_column(self.operand, relation)
        if encoding is not None:
            vocab, codes = encoding
        elif isinstance(self.operand, ColumnRef):
            if relation.schema.dtype(self.operand.name) is not DType.TEXT:
                raise TypeMismatchError(f"LIKE requires a TEXT operand in {self.to_sql()}")
            vocab, codes = relation.dictionary(self.operand.name)
        else:
            column = self.operand.evaluate(relation)
            if column.dtype != object:
                raise TypeMismatchError(f"LIKE requires a TEXT operand in {self.to_sql()}")
            mask = np.fromiter(
                (match(str(v)) is not None for v in column),
                dtype=bool,
                count=column.shape[0],
            )
            return ~mask if self.negated else mask
        vocab_mask = np.fromiter(
            (match(str(v)) is not None for v in vocab), dtype=bool, count=vocab.size
        )
        mask = vocab_mask[codes]
        return ~mask if self.negated else mask

    def output_dtype(self, schema: Schema) -> DType:
        if self.operand.output_dtype(schema) is not DType.TEXT:
            raise TypeMismatchError(f"LIKE requires a TEXT operand in {self.to_sql()}")
        return DType.BOOL

    def referenced_columns(self) -> frozenset[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.to_sql()} {keyword} {sql_constant(self.pattern)})"


def _like_to_regex(pattern: str) -> str:
    """Translate a SQL LIKE pattern into an anchored regex source."""
    pieces = []
    for char in pattern:
        if char == "%":
            pieces.append(".*")
        elif char == "_":
            pieces.append(".")
        else:
            pieces.append(re.escape(char))
    return "".join(pieces)


class And(Expr):
    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def evaluate(self, relation: Relation) -> np.ndarray:
        return self.left.evaluate(relation) & self.right.evaluate(relation)

    def output_dtype(self, schema: Schema) -> DType:
        return DType.BOOL

    def referenced_columns(self) -> frozenset[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} AND {self.right.to_sql()})"


class Or(Expr):
    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def evaluate(self, relation: Relation) -> np.ndarray:
        return self.left.evaluate(relation) | self.right.evaluate(relation)

    def output_dtype(self, schema: Schema) -> DType:
        return DType.BOOL

    def referenced_columns(self) -> frozenset[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} OR {self.right.to_sql()})"


class Not(Expr):
    def __init__(self, operand: Expr):
        self.operand = operand

    def evaluate(self, relation: Relation) -> np.ndarray:
        return ~self.operand.evaluate(relation)

    def output_dtype(self, schema: Schema) -> DType:
        return DType.BOOL

    def referenced_columns(self) -> frozenset[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        return f"(NOT {self.operand.to_sql()})"


class TruePredicate(Expr):
    """A predicate accepting every row (the implicit WHERE of no WHERE)."""

    def evaluate(self, relation: Relation) -> np.ndarray:
        return np.ones(relation.num_rows, dtype=bool)

    def output_dtype(self, schema: Schema) -> DType:
        return DType.BOOL

    def referenced_columns(self) -> frozenset[str]:
        return frozenset()

    def to_sql(self) -> str:
        return "TRUE"
