"""Vectorised scalar expression trees evaluated over relations.

Expressions evaluate column-at-a-time to numpy arrays of length
``relation.num_rows``.  The model is deliberately NULL-free: the paper's
workloads (and its SQL examples) never need three-valued logic, so every
column is total and every expression is defined on every row.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.errors import SchemaError, TypeMismatchError
from repro.relational.dtypes import DType, common_numeric_type
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class Expr(ABC):
    """A scalar expression over the columns of one relation."""

    @abstractmethod
    def evaluate(self, relation: Relation) -> np.ndarray:
        """Evaluate to an array of length ``relation.num_rows``."""

    @abstractmethod
    def output_dtype(self, schema: Schema) -> DType:
        """The logical type this expression produces under ``schema``."""

    @abstractmethod
    def referenced_columns(self) -> frozenset[str]:
        """Names of every column the expression reads."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.to_sql()

    @abstractmethod
    def to_sql(self) -> str:
        """A SQL-ish rendering, used in error messages and plan display."""


class ColumnRef(Expr):
    """A reference to a named column."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, relation: Relation) -> np.ndarray:
        return relation.column(self.name)

    def output_dtype(self, schema: Schema) -> DType:
        return schema.dtype(self.name)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset([self.name])

    def to_sql(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ColumnRef) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("ColumnRef", self.name))


def sql_constant(value: Any) -> str:
    """``value`` as SQL source text: a string is quoted, its quotes doubled."""
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


class Literal(Expr):
    """A constant value broadcast to every row."""

    def __init__(self, value: Any):
        self.value = value
        self._dtype = DType.infer([value])

    def evaluate(self, relation: Relation) -> np.ndarray:
        return np.full(relation.num_rows, self.value, dtype=self._dtype.numpy_dtype)

    def output_dtype(self, schema: Schema) -> DType:
        return self._dtype

    def referenced_columns(self) -> frozenset[str]:
        return frozenset()

    def to_sql(self) -> str:
        return sql_constant(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Literal", self.value))


_ARITH_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "%": np.mod,
}


class Arithmetic(Expr):
    """Binary arithmetic between numeric expressions (``+ - * / %``).

    Division always produces FLOAT (SQL ``/`` on integers truncates in some
    dialects; we follow Python/numpy true division, which is what the
    paper's AVG-style arithmetic expects).
    """

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _ARITH_OPS:
            raise TypeMismatchError(f"unknown arithmetic operator: {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, relation: Relation) -> np.ndarray:
        left = self.left.evaluate(relation)
        right = self.right.evaluate(relation)
        if not (np.issubdtype(left.dtype, np.number) and np.issubdtype(right.dtype, np.number)):
            raise TypeMismatchError(f"arithmetic on non-numeric operands in {self.to_sql()}")
        if self.op == "/":
            # x / 0 is inf (or nan) by IEEE rules, not a warning; whoever
            # needs finite values checks for them (sample weights raise
            # CatalogError).  Other ops keep numpy's warnings: integer
            # x % 0 reads 0, a made-up value the warning flags.
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.divide(left, right).astype(np.float64)
        return _ARITH_OPS[self.op](left, right)

    def output_dtype(self, schema: Schema) -> DType:
        if self.op == "/":
            return DType.FLOAT
        return common_numeric_type(
            self.left.output_dtype(schema), self.right.output_dtype(schema)
        )

    def referenced_columns(self) -> frozenset[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


class Negate(Expr):
    """Unary numeric negation."""

    def __init__(self, operand: Expr):
        self.operand = operand

    def evaluate(self, relation: Relation) -> np.ndarray:
        values = self.operand.evaluate(relation)
        if not np.issubdtype(values.dtype, np.number):
            raise TypeMismatchError(f"negation of non-numeric operand in {self.to_sql()}")
        return -values

    def output_dtype(self, schema: Schema) -> DType:
        dtype = self.operand.output_dtype(schema)
        if not dtype.is_numeric:
            raise TypeMismatchError(f"negation of non-numeric operand in {self.to_sql()}")
        return dtype

    def referenced_columns(self) -> frozenset[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        return f"(-{self.operand.to_sql()})"


def validate_expression(expr: Expr, schema: Schema) -> DType:
    """Type-check ``expr`` against ``schema``.

    Returns the output dtype; raises :class:`SchemaError` /
    :class:`TypeMismatchError` on unknown columns or type violations.
    """
    for name in expr.referenced_columns():
        if name not in schema:
            raise SchemaError(f"unknown column {name!r} in expression {expr.to_sql()}")
    return expr.output_dtype(schema)
