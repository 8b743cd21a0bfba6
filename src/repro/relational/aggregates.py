"""Aggregate functions with weighted semantics.

The paper's reweighting rewrite (Sec. 5.3): *"To run the aggregate queries
over a weighted sample, we simply modify the aggregate to be over a weight
attribute (e.g. COUNT(*) becomes SUM(weight))."*  This module holds the
:class:`AggregateSpec`; :mod:`repro.relational.kernels` evaluates it:

==========  ======================  ==============================
aggregate   unweighted              weighted by ``w``
==========  ======================  ==============================
COUNT(*)    n                       Σ w
COUNT(a)    n                       Σ w
SUM(a)      Σ a                     Σ w·a
AVG(a)      Σ a / n                 Σ w·a / Σ w
MIN(a)      min a                   min over rows with w > 0
MAX(a)      max a                   max over rows with w > 0
==========  ======================  ==============================

The model is NULL-free, so ``COUNT(a)`` equals ``COUNT(*)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TypeMismatchError
from repro.relational.dtypes import DType
from repro.relational.expressions import Expr
from repro.relational.schema import Schema

AGGREGATE_NAMES = frozenset(["COUNT", "SUM", "AVG", "MIN", "MAX"])


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in a SELECT list.

    ``expr`` is ``None`` exactly for ``COUNT(*)``.  ``alias`` is the output
    column name.
    """

    func: str
    expr: Expr | None
    alias: str

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_NAMES:
            raise TypeMismatchError(f"unknown aggregate function: {self.func!r}")
        if self.expr is None and self.func != "COUNT":
            raise TypeMismatchError(f"{self.func}(*) is not valid; only COUNT(*) is")

    def output_dtype(self, schema: Schema, weighted: bool) -> DType:
        """Result type. Weighted COUNT/SUM/AVG are FLOAT (fractional weights)."""
        if self.func == "COUNT":
            return DType.FLOAT if weighted else DType.INT
        if self.func == "AVG":
            return DType.FLOAT
        assert self.expr is not None
        input_dtype = self.expr.output_dtype(schema)
        if not input_dtype.is_numeric:
            raise TypeMismatchError(f"{self.func} requires a numeric argument")
        if self.func == "SUM" and weighted:
            return DType.FLOAT
        return input_dtype

    def to_sql(self) -> str:
        arg = "*" if self.expr is None else self.expr.to_sql()
        return f"{self.func}({arg})"
