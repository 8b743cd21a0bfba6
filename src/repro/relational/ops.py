"""Relational operators: project, union, distinct.

These are the physical operators the query engine composes (a WHERE mask
is applied by :meth:`Relation.filter`, a LIMIT by :meth:`Relation.head`).  Each takes and
returns :class:`~repro.relational.relation.Relation` values; none mutates
its input.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SchemaError
from repro.relational.expressions import ColumnRef, Expr, validate_expression
from repro.relational.groupby import distinct_indices
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema


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
