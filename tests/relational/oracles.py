"""Reference implementations the exact scan kernels replaced.

``grouped_aggregate`` and ``_aggregate_column`` are the bodies
``repro.relational.kernels`` had before the ungrouped path and the shared
narrow-dtype MIN/MAX order: every aggregate, grouped or not, gathers one
group code per selected row and reduces with ``np.bincount`` /
``np.add.at``; every MIN/MAX spec runs its own int64 stable argsort.  The
tests compare the production kernel against it: numeric columns
``tobytes()``-equal, TEXT columns equal, and the same error type.

``group_codes`` is the body ``repro.relational.groupby.group_codes`` had
before relations memoized their group codes: it recomputes the codes, the
group count and the first rows on every call, from the relation's
per-column dictionaries.

``compute_aggregate`` is the row-wise reference for one aggregate over a
whole relation (the seed engine applied it group by group); the kernels'
weighted semantics are checked against it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SchemaError, TypeMismatchError
from repro.relational.aggregates import AggregateSpec
from repro.relational.kernels import _argument_values
from repro.relational.relation import Relation, compact_codes
from repro.relational.schema import Schema


def group_codes(
    relation: Relation, keys: Sequence[str]
) -> tuple[np.ndarray, int, np.ndarray]:
    n = relation.num_rows
    if not keys:
        return (
            np.zeros(n, dtype=np.int64),
            1,
            np.zeros(1 if n else 0, dtype=np.int64),
        )
    if n == 0:
        return np.empty(0, dtype=np.int64), 0, np.empty(0, dtype=np.int64)

    if len(keys) == 1:
        uniques, codes = relation.dictionary(keys[0])
        return codes, len(uniques), _first_occurrences(codes, len(uniques))

    combined = np.zeros(n, dtype=np.int64)
    cross_product = 1
    for name in keys:
        uniques, codes = relation.dictionary(name)
        combined = combined * len(uniques) + codes
        cross_product *= len(uniques)

    # Multi-key combination leaves gaps (absent value pairs); re-densify.
    if cross_product <= max(4 * n, 1024):
        # Small key domain: presence mask + remap, no O(n log n) sort.
        present = np.flatnonzero(np.bincount(combined, minlength=cross_product))
        remap = np.empty(cross_product, dtype=np.int64)
        remap[present] = np.arange(len(present))
        codes = remap[combined]
        return codes, len(present), _first_occurrences(codes, len(present))
    uniques, first_indices, codes = np.unique(
        combined, return_index=True, return_inverse=True
    )
    return (
        codes.astype(np.int64, copy=False),
        len(uniques),
        first_indices.astype(np.int64, copy=False),
    )


def _first_occurrences(codes: np.ndarray, num_groups: int) -> np.ndarray:
    n = codes.shape[0]
    first = np.empty(num_groups, dtype=np.int64)
    first[codes[::-1]] = np.arange(n - 1, -1, -1)
    return first


def grouped_aggregate(
    relation: Relation,
    group_keys: Sequence[str],
    key_columns: Sequence[str],
    specs: Sequence[AggregateSpec],
    out_schema: Schema,
    weights: np.ndarray | None = None,
    selection: np.ndarray | None = None,
) -> Relation:
    n = relation.num_rows
    codes, num_groups, first_indices = group_codes(relation, group_keys)

    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != n:
            raise SchemaError(
                f"weight vector length {weights.shape[0]} does not match row count {n}"
            )

    sel: np.ndarray | None = None
    if selection is not None:
        selection = np.asarray(selection, dtype=bool)
        if selection.shape[0] != n:
            raise SchemaError(
                f"selection length {selection.shape[0]} does not match row count {n}"
            )
        sel = np.flatnonzero(selection)
        codes = codes[sel]
        if group_keys:
            codes, present, counts = compact_codes(codes, num_groups)
            first_indices = first_indices[present]
            num_groups = int(present.sum())
        else:
            counts = np.bincount(codes, minlength=num_groups)
        if weights is not None:
            weights = weights[sel]
    else:
        counts = np.bincount(codes, minlength=num_groups)

    if weights is not None:
        alive = weights > 0.0
        kept = np.bincount(codes[alive], minlength=num_groups) > 0
    else:
        alive = None
        kept = np.ones(num_groups, dtype=bool)

    columns: list[np.ndarray] = [
        relation.column(name)[first_indices][kept] for name in key_columns
    ]
    for spec in specs:
        columns.append(
            _aggregate_column(
                spec, relation, codes, num_groups, counts, weights, alive, kept, sel
            )
        )
    return Relation.from_groups(out_schema, columns)


def _aggregate_column(
    spec: AggregateSpec,
    relation: Relation,
    codes: np.ndarray,
    num_groups: int,
    counts: np.ndarray,
    weights: np.ndarray | None,
    alive: np.ndarray | None,
    kept: np.ndarray,
    sel: np.ndarray | None = None,
) -> np.ndarray:
    if spec.func == "COUNT":
        if weights is None:
            return counts[kept]
        return np.bincount(codes, weights=weights, minlength=num_groups)[kept]

    if weights is None and np.any(counts[kept] == 0):
        raise SchemaError(f"aggregate {spec.to_sql()} over zero rows")

    assert spec.expr is not None
    values = _argument_values(spec, relation, sel)
    if not np.issubdtype(values.dtype, np.number):
        raise TypeMismatchError(f"{spec.func} requires a numeric argument")

    if spec.func == "SUM":
        if weights is None:
            if np.issubdtype(values.dtype, np.integer):
                sums = np.zeros(num_groups, dtype=np.int64)
                np.add.at(sums, codes, values)
            else:
                sums = np.bincount(codes, weights=values, minlength=num_groups)
        else:
            sums = np.bincount(codes, weights=weights * values, minlength=num_groups)
        return sums[kept]
    if spec.func == "AVG":
        if weights is None:
            sums = np.bincount(codes, weights=values.astype(np.float64), minlength=num_groups)
            return sums[kept] / counts[kept]
        weighted_sums = np.bincount(codes, weights=weights * values, minlength=num_groups)
        weight_totals = np.bincount(codes, weights=weights, minlength=num_groups)
        if np.any(weight_totals[kept] <= 0.0):
            raise SchemaError(f"AVG over zero total weight in {spec.to_sql()}")
        return weighted_sums[kept] / weight_totals[kept]

    assert spec.func in ("MIN", "MAX")
    if alive is not None:
        segment_codes = codes[alive]
        segment_values = values[alive]
    else:
        segment_codes = codes
        segment_values = values
    if segment_codes.size == 0:
        return segment_values[:0]
    order = np.argsort(segment_codes, kind="stable")
    segment_codes = segment_codes[order]
    segment_values = segment_values[order]
    starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(segment_codes)) + 1]
    ).astype(np.int64)
    ufunc = np.minimum if spec.func == "MIN" else np.maximum
    return ufunc.reduceat(segment_values, starts)


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
