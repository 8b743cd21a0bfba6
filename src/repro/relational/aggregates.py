"""Aggregate functions with weighted semantics.

The paper's reweighting rewrite (Sec. 5.3): *"To run the aggregate queries
over a weighted sample, we simply modify the aggregate to be over a weight
attribute (e.g. COUNT(*) becomes SUM(weight))."*  That rewrite lives here:

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

import numpy as np

from repro.errors import SchemaError, TypeMismatchError
from repro.relational.dtypes import DType
from repro.relational.expressions import Expr
from repro.relational.relation import Relation
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


def compute_aggregate(
    spec: AggregateSpec,
    relation: Relation,
    weights: np.ndarray | None = None,
) -> float | int:
    """Evaluate one aggregate over an entire relation.

    ``weights`` is a per-row weight vector (``None`` means every row counts
    once).  Empty inputs follow SQL semantics loosely adapted to the
    NULL-free model: ``COUNT`` of nothing is 0; every other aggregate of
    nothing raises, because the engine filters out empty groups before
    calling here.
    """
    n = relation.num_rows
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != n:
            raise SchemaError(
                f"weight vector length {weights.shape[0]} does not match row count {n}"
            )

    if spec.func == "COUNT":
        if weights is None:
            return int(n)
        return float(np.sum(weights))

    if n == 0:
        raise SchemaError(f"aggregate {spec.to_sql()} over zero rows")

    assert spec.expr is not None
    values = np.asarray(spec.expr.evaluate(relation))
    if not np.issubdtype(values.dtype, np.number):
        raise TypeMismatchError(f"{spec.func} requires a numeric argument")

    if spec.func == "SUM":
        if weights is None:
            return _native(np.sum(values))
        return float(np.sum(weights * values))
    if spec.func == "AVG":
        if weights is None:
            return float(np.mean(values))
        total_weight = float(np.sum(weights))
        if total_weight <= 0.0:
            raise SchemaError(f"AVG over zero total weight in {spec.to_sql()}")
        return float(np.sum(weights * values) / total_weight)

    # MIN / MAX: zero-weight rows are "not there" under reweighting.
    if weights is not None:
        alive = weights > 0.0
        if not np.any(alive):
            raise SchemaError(f"{spec.func} over zero total weight in {spec.to_sql()}")
        values = values[alive]
    if spec.func == "MIN":
        return _native(np.min(values))
    return _native(np.max(values))


def _native(value: np.generic) -> float | int:
    return value.item()
