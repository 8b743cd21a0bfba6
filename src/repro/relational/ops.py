"""Relational operators: filter, project, union, distinct, limit.

These are the physical operators the query engine composes.  Each takes and
returns :class:`~repro.relational.relation.Relation` values; none mutates
its input.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SchemaError
from repro.relational.dtypes import DType
from repro.relational.expressions import ColumnRef, Expr, validate_expression
from repro.relational.groupby import distinct_indices
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema


def filter_rows(relation: Relation, predicate: Expr) -> Relation:
    """Keep rows satisfying ``predicate`` (a BOOL-typed expression)."""
    dtype = validate_expression(predicate, relation.schema)
    if dtype is not DType.BOOL:
        raise SchemaError(f"WHERE predicate must be boolean, got {dtype.value}")
    return relation.filter(predicate.evaluate(relation))


def project_expressions(
    relation: Relation, exprs: Sequence[Expr], aliases: Sequence[str]
) -> Relation:
    """Evaluate expressions into a new relation with the given column names.

    Plain column references skip re-coercion entirely — the stored array is
    already in storage form and immutable-by-convention, so it is shared,
    and a TEXT column's dictionary encoding rides along under the alias.
    Computed expressions coerce their (fresh) output arrays as before.
    """
    if len(exprs) != len(aliases):
        raise SchemaError("projection expressions and aliases must align")
    fields = []
    columns = {}
    encodings = {}
    for expr, alias in zip(exprs, aliases):
        dtype = validate_expression(expr, relation.schema)
        fields.append(Field(alias, dtype))
        if isinstance(expr, ColumnRef):
            columns[alias] = relation.column(expr.name)
            encoding = relation.encoding(expr.name)
            if encoding is not None:
                encodings[alias] = encoding
        else:
            columns[alias] = dtype.coerce_array(expr.evaluate(relation))
    return Relation(Schema(fields), columns, encodings=encodings)


def union_all(relations: Sequence[Relation]) -> Relation:
    """Vertical union of relations sharing one schema."""
    if not relations:
        raise SchemaError("union of zero relations")
    result = relations[0]
    for rel in relations[1:]:
        result = result.concat(rel)
    return result


def distinct(relation: Relation, keys: Sequence[str] | None = None) -> Relation:
    """First occurrence of each distinct key combination (all columns if None)."""
    keys = list(keys) if keys is not None else list(relation.column_names)
    indices = distinct_indices(relation, keys)
    return relation.take(np.sort(indices))


def limit(relation: Relation, n: int) -> Relation:
    if n < 0:
        raise SchemaError(f"LIMIT must be non-negative, got {n}")
    return relation.head(n)
