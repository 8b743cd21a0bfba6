"""Vectorized grouped-aggregation kernels (segment reductions over group codes).

These kernels replace the per-group ``relation.take`` + Python-row loop that
used to sit at the bottom of every visibility path.  All groups are reduced
at once:

- COUNT / SUM / AVG use ``np.bincount`` over the dense group codes produced
  by :meth:`repro.relational.relation.Relation.group_codes` (weighted
  variants bincount ``w`` and ``w * value``),
- MIN / MAX sort rows by group code once per call — one stable order shared
  by every MIN/MAX spec, see :func:`~repro.relational.groupby.stable_group_order`
  — and apply ``ufunc.reduceat`` at the segment starts,
- an aggregate without GROUP BY has one implicit group and skips codes
  altogether: COUNT is the selected-row count, sums are one left-to-right
  accumulation (:func:`_sequential_sum`, the bits of a one-bin bincount),
  MIN / MAX one reduce,

and the result relation is assembled column-wise via
:meth:`Relation.from_groups` — no intermediate Python row tuples.

Weighted semantics match the row-wise reference ``compute_aggregate`` in
``tests/relational/oracles.py`` exactly: a group whose rows all carry zero
weight "does not exist" and is dropped from the output; MIN/MAX ignore
zero-weight rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import SchemaError, TypeMismatchError
from repro.relational.aggregates import AggregateSpec
from repro.relational.expressions import ColumnRef
from repro.relational.groupby import stable_group_order
from repro.relational.relation import Relation, compact_codes
from repro.relational.schema import Schema


def grouped_aggregate(
    relation: Relation,
    group_keys: Sequence[str],
    key_columns: Sequence[str],
    specs: Sequence[AggregateSpec],
    out_schema: Schema,
    weights: np.ndarray | None = None,
    selection: np.ndarray | None = None,
) -> Relation:
    """Aggregate ``relation`` grouped by ``group_keys`` in one vectorized pass.

    ``key_columns`` names the source column behind each leading output field
    (the SELECTed group keys, possibly aliased); ``specs`` hold the bound
    aggregate expressions for the remaining fields.  ``out_schema`` has one
    field per key column followed by one per spec.  Groups appear in
    key-sorted order, matching :func:`~repro.relational.groupby.group_rows`.

    ``selection`` is an optional boolean mask over ``relation``'s rows (the
    WHERE clause's selection vector): only selected rows aggregate, exactly
    as if ``relation.filter(selection)`` ran first — but nothing is
    materialised.  Group codes come from the *unfiltered* relation's
    memoized dictionary encodings and are sliced, so a filtered group-by
    never re-encodes its key columns; groups with no selected row are
    dropped (except the single implicit group of an ungrouped aggregate,
    which always exists).  ``weights`` stays aligned with the unfiltered
    relation and is sliced alongside the codes.
    """
    n = relation.num_rows
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
        if weights is not None:
            weights = weights[sel]

    if not group_keys:
        return _ungrouped_aggregate(relation, specs, out_schema, weights, sel)

    codes, num_groups, first_indices = relation.group_codes(group_keys)
    if sel is not None:
        # Groups with no selected row "do not exist": compact the code
        # space to the present groups (key representatives keep their
        # original row indices — any member row carries the key values).
        codes, present, counts = compact_codes(codes[sel], num_groups)
        first_indices = first_indices[present]
        num_groups = int(present.sum())
    else:
        counts = np.bincount(codes, minlength=num_groups)

    if weights is not None:
        alive = weights > 0.0
        alive_counts = np.bincount(codes[alive], minlength=num_groups)
        # A group with no positively weighted row was reweighted away.
        kept = alive_counts > 0
    else:
        alive = None
        alive_counts = counts
        kept = np.ones(num_groups, dtype=bool)

    segments: tuple[np.ndarray, np.ndarray] | None = None
    if any(spec.func in ("MIN", "MAX") for spec in specs) and kept.any():
        # One stable order of the (alive) rows by group, shared by every
        # MIN/MAX spec.  Each kept group's rows form one run of it, so the
        # run starts are the running totals of the kept groups' counts.
        order = stable_group_order(codes if alive is None else codes[alive], num_groups)
        lengths = alive_counts[kept]
        starts = np.zeros(lengths.shape[0], dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        segments = (order, starts)

    columns: list[np.ndarray] = [
        relation.column(name)[first_indices][kept] for name in key_columns
    ]
    for spec in specs:
        columns.append(
            _aggregate_column(
                spec, relation, codes, num_groups, counts, weights, alive, kept, sel, segments
            )
        )
    return Relation.from_groups(out_schema, columns)


def _argument_values(
    spec: AggregateSpec, relation: Relation, sel: np.ndarray | None
) -> np.ndarray:
    """The aggregate argument evaluated over exactly the selected rows.

    Plain column references read the stored array and slice (no copy
    beyond the gather).  Compound expressions must *not* see filtered-out
    rows — ``AVG(a / b) ... WHERE b != 0`` relies on the filter to guard
    the division — so they evaluate over a minimal relation of just their
    referenced columns, taken at the selection.
    """
    assert spec.expr is not None
    if sel is None:
        return np.asarray(spec.expr.evaluate(relation))
    if isinstance(spec.expr, ColumnRef):
        return np.asarray(relation.column(spec.expr.name))[sel]
    referenced = sorted(spec.expr.referenced_columns())
    if not referenced:
        # Constant expression: evaluating over all rows is side-effect-free.
        return np.asarray(spec.expr.evaluate(relation))[sel]
    restricted = relation.project(referenced).take(sel)
    return np.asarray(spec.expr.evaluate(restricted))


def _numeric_argument(
    spec: AggregateSpec, relation: Relation, sel: np.ndarray | None
) -> np.ndarray:
    values = _argument_values(spec, relation, sel)
    if not np.issubdtype(values.dtype, np.number):
        raise TypeMismatchError(f"{spec.func} requires a numeric argument")
    return values


def _aggregate_column(
    spec: AggregateSpec,
    relation: Relation,
    codes: np.ndarray,
    num_groups: int,
    counts: np.ndarray,
    weights: np.ndarray | None,
    alive: np.ndarray | None,
    kept: np.ndarray,
    sel: np.ndarray | None,
    segments: tuple[np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    if spec.func == "COUNT":
        if weights is None:
            return counts[kept]
        return np.bincount(codes, weights=weights, minlength=num_groups)[kept]

    values = _numeric_argument(spec, relation, sel)

    if spec.func == "SUM":
        if weights is None:
            if np.issubdtype(values.dtype, np.integer):
                # Exact int64 accumulation (bincount sums in float64, which
                # truncates beyond 2**53).
                sums = np.zeros(num_groups, dtype=np.int64)
                np.add.at(sums, codes, values)
            else:
                sums = np.bincount(codes, weights=values, minlength=num_groups)
        else:
            sums = np.bincount(codes, weights=weights * values, minlength=num_groups)
        return sums[kept]
    if spec.func == "AVG":
        if weights is None:
            sums = np.bincount(
                codes, weights=values.astype(np.float64, copy=False), minlength=num_groups
            )
            return sums[kept] / counts[kept]
        weighted_sums = np.bincount(codes, weights=weights * values, minlength=num_groups)
        weight_totals = np.bincount(codes, weights=weights, minlength=num_groups)
        if np.any(weight_totals[kept] <= 0.0):
            raise SchemaError(f"AVG over zero total weight in {spec.to_sql()}")
        return weighted_sums[kept] / weight_totals[kept]

    assert spec.func in ("MIN", "MAX")
    # Zero-weight rows are "not there" under reweighting.
    segment_values = values if alive is None else values[alive]
    if segments is None:
        return segment_values[:0]
    order, starts = segments
    ufunc = np.minimum if spec.func == "MIN" else np.maximum
    # The groups present among alive rows are exactly the kept groups, in
    # the same (ascending code) order, so reduceat output aligns with kept.
    return ufunc.reduceat(segment_values[order], starts)


def _ungrouped_aggregate(
    relation: Relation,
    specs: Sequence[AggregateSpec],
    out_schema: Schema,
    weights: np.ndarray | None,
    sel: np.ndarray | None,
) -> Relation:
    """The one implicit group of an aggregate without GROUP BY.

    Same answers, bit for bit, as the grouped kernels over a single group
    code — which always exists unless it is weighted and no selected row
    has positive weight — but no code is gathered and nothing is binned.
    """
    count = relation.num_rows if sel is None else sel.shape[0]
    alive = None if weights is None else weights > 0.0
    kept = alive is None or bool(alive.any())
    columns = [
        _ungrouped_column(spec, relation, count, weights, alive, sel)[: int(kept)]
        for spec in specs
    ]
    return Relation.from_groups(out_schema, columns)


def _ungrouped_column(
    spec: AggregateSpec,
    relation: Relation,
    count: int,
    weights: np.ndarray | None,
    alive: np.ndarray | None,
    sel: np.ndarray | None,
) -> np.ndarray:
    """One spec over the implicit group: a one-element array (MIN/MAX over
    no alive row: empty), sliced away by the caller when the group is not
    kept."""
    if spec.func == "COUNT":
        if weights is None:
            return np.array([count], dtype=np.int64)
        return _sequential_sum(weights)

    if weights is None and count == 0:
        raise SchemaError(f"aggregate {spec.to_sql()} over zero rows")

    values = _numeric_argument(spec, relation, sel)

    if spec.func == "SUM":
        if weights is not None:
            return _sequential_sum(weights * values)
        if np.issubdtype(values.dtype, np.integer):
            # Two's-complement int64 addition wraps the same in any order.
            return np.add.reduce(values, dtype=np.int64, keepdims=True)
        return _sequential_sum(values)
    if spec.func == "AVG":
        if weights is None:
            return _sequential_sum(values.astype(np.float64, copy=False)) / count
        weighted_sum = _sequential_sum(weights * values)
        if not alive.any():
            return weighted_sum[:0]
        weight_total = _sequential_sum(weights)
        if weight_total[0] <= 0.0:
            raise SchemaError(f"AVG over zero total weight in {spec.to_sql()}")
        return weighted_sum / weight_total

    assert spec.func in ("MIN", "MAX")
    if alive is not None:
        values = values[alive]
    if values.shape[0] == 0:
        return values
    ufunc = np.minimum if spec.func == "MIN" else np.maximum
    return ufunc.reduce(values, keepdims=True)


def _sequential_sum(values: np.ndarray) -> np.ndarray:
    """``values`` summed in row order, as a one-element float64 array.

    Bit for bit what a one-bin ``np.bincount`` returns: it adds each value
    in turn to an accumulator that starts at ``+0.0``.  ``add.accumulate``
    runs the same recurrence from the first value instead, which can only
    differ while every partial sum is a zero (``-0.0`` stays ``-0.0``);
    adding the total to ``+0.0`` restores bincount's sign.  ``np.sum``
    would not do: its pairwise order moves the last ulp.
    """
    total = np.zeros(1)
    if values.shape[0]:
        # Like bincount, overflow to inf and inf - inf stay silent.
        with np.errstate(over="ignore", invalid="ignore"):
            total += np.add.accumulate(values, dtype=np.float64)[-1]
    return total


# --------------------------------------------------------------------- #
# Batched (composite-code) aggregation for OPEN repetitions
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CompositeAggregates:
    """Per-(repetition, group) aggregates over one batched relation.

    Produced by :func:`grouped_aggregate_composite` from a stacked
    ``R x n``-row generation: group ids span the *whole* batch (one shared
    dictionary per key column), so group ``g`` means the same key values
    in every repetition — exactly the identity the OPEN answer combiner
    needs.  ``present[r, g]`` says repetition ``r`` produced group ``g``
    (at least one selected, positively weighted row); ``values[i][r, g]``
    is the ``i``-th aggregate's value for that cell (defined only where
    ``present``).  ``first_indices[g]`` is a representative batch row for
    reading group ``g``'s key values.
    """

    num_groups: int
    repetitions: int
    first_indices: np.ndarray
    present: np.ndarray
    values: tuple[np.ndarray, ...]


def grouped_aggregate_composite(
    relation: Relation,
    group_keys: Sequence[str],
    specs: Sequence[AggregateSpec],
    rep_ids: np.ndarray,
    repetitions: int,
    weights: np.ndarray,
    selection: np.ndarray | None = None,
) -> CompositeAggregates:
    """Aggregate all ``repetitions`` of a batch in one composite pass.

    Instead of slicing the batch into ``R`` relations and aggregating each
    (R bincounts, R sorts, R result relations), every reduction runs once
    over composite codes ``rep * num_groups + group`` — the same kernels
    (bincount for COUNT/SUM/AVG, sort + ``ufunc.reduceat`` for MIN/MAX)
    with ``R * num_groups`` cells.  Per-cell results are bit-identical to
    the per-repetition path: rows of one repetition are contiguous and in
    generation order, so each cell reduces the same values in the same
    order as its serial counterpart.

    Weighted semantics mirror :func:`grouped_aggregate` exactly: a cell
    "exists" iff it has a selected row with positive weight; COUNT/SUM/AVG
    reduce over all selected rows (zero weights contribute nothing), while
    MIN/MAX reduce over positively weighted rows only.
    """
    n = relation.num_rows
    codes, num_groups, first_indices = relation.group_codes(group_keys)
    if weights.shape[0] != n:
        raise SchemaError(
            f"weight vector length {weights.shape[0]} does not match row count {n}"
        )
    composite = rep_ids * num_groups + codes
    total_cells = repetitions * num_groups

    if selection is not None:
        selection = np.asarray(selection, dtype=bool)
        if selection.shape[0] != n:
            raise SchemaError(
                f"selection length {selection.shape[0]} does not match row count {n}"
            )
        sel = np.flatnonzero(selection)
        composite_sel = composite[sel]
        weights_sel = weights[sel]
    else:
        sel = None
        composite_sel = composite
        weights_sel = weights

    alive = weights_sel > 0.0
    composite_alive = composite_sel if alive.all() else composite_sel[alive]
    present = (
        np.bincount(composite_alive, minlength=total_cells) > 0
    ).reshape(repetitions, num_groups)

    value_matrices: list[np.ndarray] = []
    for spec in specs:
        value_matrices.append(
            _composite_aggregate_matrix(
                spec,
                relation,
                sel,
                composite_sel,
                weights_sel,
                alive,
                composite_alive,
                total_cells,
            ).reshape(repetitions, num_groups)
        )
    return CompositeAggregates(
        num_groups=num_groups,
        repetitions=repetitions,
        first_indices=first_indices,
        present=present,
        values=tuple(value_matrices),
    )


def _composite_aggregate_matrix(
    spec: AggregateSpec,
    relation: Relation,
    sel: np.ndarray | None,
    composite_sel: np.ndarray,
    weights_sel: np.ndarray,
    alive: np.ndarray,
    composite_alive: np.ndarray,
    total_cells: int,
) -> np.ndarray:
    """One aggregate's per-cell values over the flat composite code space."""
    if spec.func == "COUNT":
        return np.bincount(composite_sel, weights=weights_sel, minlength=total_cells)

    assert spec.expr is not None
    values = _argument_values(spec, relation, sel)
    if not np.issubdtype(values.dtype, np.number):
        raise TypeMismatchError(f"{spec.func} requires a numeric argument")

    if spec.func == "SUM":
        return np.bincount(
            composite_sel, weights=weights_sel * values, minlength=total_cells
        )
    if spec.func == "AVG":
        weighted_sums = np.bincount(
            composite_sel, weights=weights_sel * values, minlength=total_cells
        )
        weight_totals = np.bincount(
            composite_sel, weights=weights_sel, minlength=total_cells
        )
        averages = np.zeros(total_cells, dtype=np.float64)
        np.divide(weighted_sums, weight_totals, out=averages, where=weight_totals > 0.0)
        return averages

    assert spec.func in ("MIN", "MAX")
    segment_values = values if alive.all() else values[alive]
    result = np.zeros(total_cells, dtype=np.float64)
    if composite_alive.size == 0:
        return result
    order = stable_group_order(composite_alive, total_cells)
    sorted_codes = composite_alive[order]
    sorted_values = segment_values[order]
    starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(sorted_codes)) + 1]
    ).astype(np.int64)
    ufunc = np.minimum if spec.func == "MIN" else np.maximum
    result[sorted_codes[starts]] = ufunc.reduceat(sorted_values, starts)
    return result


# --------------------------------------------------------------------- #
# Cross-shard merge (fleet scatter/gather)
# --------------------------------------------------------------------- #

_PARTIAL_MERGE_FUNCS = {"sum": "SUM", "min": "MIN", "max": "MAX"}


def merge_partial_aggregates(
    partials: Sequence[Relation],
    group_keys: Sequence[str],
    merge_ops: Sequence[tuple[str, str]],
) -> Relation:
    """Merge shard-level partial-aggregate *relations* into one.

    The COUNT/SUM accumulate + MIN/MAX extremum algebra over whole
    relations that crossed the wire.  ``partials`` share one schema (group
    keys first, then partial aggregate columns); :meth:`Relation.concat`
    unions the key vocabularies
    (searchsorted remap), and one unweighted :func:`grouped_aggregate` pass
    re-reduces with SUM/MIN/MAX over the partial columns per ``merge_ops``
    (``[(column, "sum" | "min" | "max"), ...]``).

    Summation order is shard-index order by construction (concat preserves
    it and the re-reduce accumulates in row order), so float totals are
    deterministic for a fixed shard decomposition.  Unweighted integer SUM
    stays exact int64, so COUNT merges are always exact.

    Empty ``concat`` (every shard had zero selected rows) returns the empty
    partial relation unchanged — the caller owns zero-row semantics (raise
    vs COUNT-0 row) because only the *global* row count decides them.
    """
    combined = partials[0]
    for partial in partials[1:]:
        combined = combined.concat(partial)
    if combined.num_rows == 0:
        return combined
    schema = combined.schema
    specs = tuple(
        AggregateSpec(_PARTIAL_MERGE_FUNCS[op], ColumnRef(column), column)
        for column, op in merge_ops
    )
    return grouped_aggregate(
        combined,
        tuple(group_keys),
        tuple(group_keys),
        specs,
        schema,
    )


class WelfordMoments:
    """Vectorized running mean/variance over per-repetition value rows.

    The OPEN stream feeds one ``(cells,)`` row per *participating*
    repetition (a repetition's aggregate value for each surviving group);
    the update is Welford's numerically stable recurrence applied to every
    cell at once, so a cell's moments depend on that cell's values alone
    and :meth:`take` can drop cells between updates.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self, cells: int):
        self.count = 0
        self.mean = np.zeros(cells, dtype=np.float64)
        self._m2 = np.zeros(cells, dtype=np.float64)

    def update(self, rows: np.ndarray) -> None:
        """Fold ``rows`` (``(r, cells)`` or ``(cells,)``) in row order."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        for row in rows:
            self.count += 1
            delta = row - self.mean
            self.mean += delta / self.count
            self._m2 += delta * (row - self.mean)

    def take(self, cells: np.ndarray) -> None:
        """Keep only ``cells`` (in that order), in place."""
        self.mean = self.mean[cells]
        self._m2 = self._m2[cells]

    def variance(self) -> np.ndarray:
        """Per-cell sample variance (ddof=1); ``inf`` below two updates."""
        if self.count < 2:
            return np.full(self.mean.shape, np.inf)
        return self._m2 / (self.count - 1)

    def std(self) -> np.ndarray:
        return np.sqrt(self.variance())

    def ci_halfwidth(self, z: float) -> np.ndarray:
        """``z * std / sqrt(count)`` — the CI half-width of the mean."""
        if self.count < 2:
            return np.full(self.mean.shape, np.inf)
        return z * np.sqrt(self.variance() / self.count)
