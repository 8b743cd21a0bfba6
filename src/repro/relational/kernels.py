"""Vectorized grouped-aggregation kernels (segment reductions over group codes).

These kernels replace the per-group ``relation.take`` + Python-row loop that
used to sit at the bottom of every visibility path.  All groups are reduced
at once:

- COUNT / SUM / AVG use ``np.bincount`` over the dense group codes produced
  by :func:`repro.relational.groupby.group_codes` (weighted variants bincount
  ``w`` and ``w * value``),
- MIN / MAX sort rows by group code once and apply ``ufunc.reduceat`` at the
  segment starts,

and the result relation is assembled column-wise via
:meth:`Relation.from_groups` — no intermediate Python row tuples.

Weighted semantics mirror :func:`repro.relational.aggregates.compute_aggregate`
exactly: a group whose rows all carry zero weight "does not exist" and is
dropped from the output; MIN/MAX ignore zero-weight rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import SchemaError, TypeMismatchError
from repro.relational.aggregates import AggregateSpec
from repro.relational.expressions import ColumnRef
from repro.relational.groupby import group_codes
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
            # Groups with no selected row "do not exist": compact the code
            # space to the present groups (key representatives keep their
            # original row indices — any member row carries the key values).
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
        # A group with no positively weighted row was reweighted away.
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

    # Only the ungrouped-empty-unweighted case can reach a zero-row group;
    # weighted zero-mass groups were already dropped via ``kept``.
    if weights is None and np.any(counts[kept] == 0):
        raise SchemaError(f"aggregate {spec.to_sql()} over zero rows")

    assert spec.expr is not None
    values = _argument_values(spec, relation, sel)
    if not np.issubdtype(values.dtype, np.number):
        raise TypeMismatchError(f"{spec.func} requires a numeric argument")

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
            sums = np.bincount(codes, weights=values.astype(np.float64), minlength=num_groups)
            return sums[kept] / counts[kept]
        weighted_sums = np.bincount(codes, weights=weights * values, minlength=num_groups)
        weight_totals = np.bincount(codes, weights=weights, minlength=num_groups)
        if np.any(weight_totals[kept] <= 0.0):
            raise SchemaError(f"AVG over zero total weight in {spec.to_sql()}")
        return weighted_sums[kept] / weight_totals[kept]

    assert spec.func in ("MIN", "MAX")
    # Zero-weight rows are "not there" under reweighting.
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
    # The groups present among alive rows are exactly the kept groups, in
    # the same (ascending code) order, so reduceat output aligns with kept.
    return ufunc.reduceat(segment_values, starts)


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
    codes, num_groups, first_indices = group_codes(relation, group_keys)
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
    order = np.argsort(composite_alive, kind="stable")
    sorted_codes = composite_alive[order]
    sorted_values = segment_values[order]
    starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(sorted_codes)) + 1]
    ).astype(np.int64)
    ufunc = np.minimum if spec.func == "MIN" else np.maximum
    result[sorted_codes[starts]] = ufunc.reduceat(sorted_values, starts)
    return result


# --------------------------------------------------------------------- #
# Morsel-partial aggregation (multi-process execution)
# --------------------------------------------------------------------- #

#: Sentinel for "no row of this cell seen yet" in first-occurrence merges.
NO_ROW = np.iinfo(np.int64).max


def encoded_group_domain(
    relation: Relation, group_keys: Sequence[str]
) -> tuple[tuple[int, ...], int] | None:
    """Vocab cross-product domain for ``group_keys``, or ``None``.

    Morsel-partitioned aggregation needs group ids that mean the same key
    values in *every* morsel.  Dense dictionary codes cannot provide that
    (each morsel would densify over its own present values), but the
    first-class storage encodings can: every morsel slices the same vocab,
    so ``vocab-index`` cross-product cells are globally consistent — and
    because each vocab is sorted, ascending cell id is ascending key order,
    exactly the order the dense kernels emit.  Returns ``(sizes, total)``
    per key, or ``None`` when any key lacks a storage encoding (numeric or
    raw-constructed keys fall back to in-process dense execution).
    """
    sizes: list[int] = []
    total = 1
    for key in group_keys:
        entry = relation.encoding(key)
        if entry is None:
            return None
        sizes.append(int(entry[0].size))
        total *= sizes[-1]
    return tuple(sizes), total


def encoded_group_codes(
    relation: Relation, group_keys: Sequence[str], domain_sizes: Sequence[int]
) -> np.ndarray:
    """Per-row cell ids over the full vocab cross-product domain (int64).

    The morsel-consistent sibling of
    :func:`~repro.relational.groupby.group_codes`: no densification, so
    unreferenced vocab entries simply produce empty cells.
    """
    n = relation.num_rows
    combined = np.zeros(n, dtype=np.int64)
    for key, size in zip(group_keys, domain_sizes):
        entry = relation.encoding(key)
        assert entry is not None and entry[0].size == size
        combined = combined * size + entry[1]
    return combined


def grouped_aggregate_partial(
    relation: Relation,
    group_keys: Sequence[str],
    specs: Sequence[AggregateSpec],
    domain_sizes: Sequence[int],
    total_cells: int,
    weights: np.ndarray | None,
    selection: np.ndarray | None,
    row_offset: int,
) -> dict:
    """One morsel's mergeable partial aggregates over the full cell domain.

    ``relation`` is the morsel slice, ``row_offset`` its first row's global
    index.  The partial carries, per cell: the first *unfiltered* global
    row (``NO_ROW`` where unoccupied, min-merged across morsels so the
    representative row matches single-pass execution), selected-row counts,
    positively-weighted-row counts (weighted plans), and per-spec
    accumulators — plain sums for COUNT/SUM/AVG (bincount output, merged by
    addition in morsel order) and ``(value, has)`` pairs for MIN/MAX.
    Every reduction is the same kernel :func:`grouped_aggregate` runs, just
    over cell ids instead of dense codes, which is what makes the merged
    result independent of how morsels are scheduled.
    """
    n = relation.num_rows
    cell_codes = encoded_group_codes(relation, group_keys, domain_sizes)

    first = np.full(total_cells, NO_ROW, dtype=np.int64)
    if n:
        # Reverse-order fancy assignment: the last write per cell is its
        # lowest row index (see groupby._first_occurrences).
        first[cell_codes[::-1]] = np.arange(
            row_offset + n - 1, row_offset - 1, -1, dtype=np.int64
        )

    sel: np.ndarray | None = None
    codes_sel = cell_codes
    weights_sel = weights
    if selection is not None:
        sel = np.flatnonzero(selection)
        codes_sel = cell_codes[sel]
        if weights is not None:
            weights_sel = weights[sel]

    partial: dict = {
        "first": first,
        "counts": np.bincount(codes_sel, minlength=total_cells),
    }
    alive: np.ndarray | None = None
    if weights_sel is not None:
        alive = weights_sel > 0.0
        partial["alive"] = np.bincount(
            codes_sel if alive.all() else codes_sel[alive], minlength=total_cells
        )
    partial["specs"] = [
        _partial_aggregate_column(
            spec, relation, codes_sel, total_cells, weights_sel, alive, sel
        )
        for spec in specs
    ]
    return partial


def _partial_aggregate_column(
    spec: AggregateSpec,
    relation: Relation,
    codes: np.ndarray,
    total_cells: int,
    weights: np.ndarray | None,
    alive: np.ndarray | None,
    sel: np.ndarray | None,
) -> dict | None:
    """One spec's mergeable per-cell accumulators for one morsel."""
    if spec.func == "COUNT":
        if weights is None:
            return None  # merged "counts" already carries it
        return {"wcount": np.bincount(codes, weights=weights, minlength=total_cells)}

    assert spec.expr is not None
    values = _argument_values(spec, relation, sel)
    if not np.issubdtype(values.dtype, np.number):
        raise TypeMismatchError(f"{spec.func} requires a numeric argument")

    if spec.func == "SUM":
        if weights is None:
            if np.issubdtype(values.dtype, np.integer):
                sums = np.zeros(total_cells, dtype=np.int64)
                np.add.at(sums, codes, values)
            else:
                sums = np.bincount(codes, weights=values, minlength=total_cells)
        else:
            sums = np.bincount(codes, weights=weights * values, minlength=total_cells)
        return {"sum": sums}
    if spec.func == "AVG":
        if weights is None:
            return {
                "sum": np.bincount(
                    codes, weights=values.astype(np.float64), minlength=total_cells
                )
            }
        return {
            "wsum": np.bincount(codes, weights=weights * values, minlength=total_cells),
            "wtot": np.bincount(codes, weights=weights, minlength=total_cells),
        }

    assert spec.func in ("MIN", "MAX")
    if alive is not None and not alive.all():
        segment_codes = codes[alive]
        segment_values = values[alive]
    else:
        segment_codes = codes
        segment_values = values
    value = np.zeros(total_cells, dtype=segment_values.dtype)
    has = np.zeros(total_cells, dtype=bool)
    if segment_codes.size:
        order = np.argsort(segment_codes, kind="stable")
        sorted_codes = segment_codes[order]
        sorted_values = segment_values[order]
        starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(sorted_codes)) + 1]
        ).astype(np.int64)
        ufunc = np.minimum if spec.func == "MIN" else np.maximum
        cells = sorted_codes[starts]
        value[cells] = ufunc.reduceat(sorted_values, starts)
        has[cells] = True
    return {"value": value, "has": has}


def merge_grouped_partials(
    partials: Sequence[dict],
    specs: Sequence[AggregateSpec],
    weighted: bool,
) -> dict:
    """Merge morsel partials in morsel-index order.

    Additive accumulators merge by sequential ``+`` in morsel order — a
    fixed float summation order, so the result depends only on the morsel
    decomposition, never on which worker computed which morsel.  MIN/MAX
    merge via masked min/max (order-independent); first-occurrence rows
    min-merge.
    """
    merged: dict = {
        "first": partials[0]["first"].copy(),
        "counts": partials[0]["counts"].copy(),
    }
    for partial in partials[1:]:
        np.minimum(merged["first"], partial["first"], out=merged["first"])
        merged["counts"] = merged["counts"] + partial["counts"]
    if weighted:
        merged["alive"] = partials[0]["alive"].copy()
        for partial in partials[1:]:
            merged["alive"] = merged["alive"] + partial["alive"]

    merged_specs: list[dict | None] = []
    for index, spec in enumerate(specs):
        parts = [partial["specs"][index] for partial in partials]
        if parts[0] is None:  # unweighted COUNT rides on "counts"
            merged_specs.append(None)
            continue
        if spec.func in ("MIN", "MAX"):
            value = parts[0]["value"].copy()
            has = parts[0]["has"].copy()
            ufunc = np.minimum if spec.func == "MIN" else np.maximum
            for part in parts[1:]:
                other_value, other_has = part["value"], part["has"]
                both = has & other_has
                value[both] = ufunc(value[both], other_value[both])
                only_other = other_has & ~has
                value[only_other] = other_value[only_other]
                has |= other_has
            merged_specs.append({"value": value, "has": has})
            continue
        item = {name: array.copy() for name, array in parts[0].items()}
        for part in parts[1:]:
            for name in item:
                item[name] = item[name] + part[name]
        merged_specs.append(item)
    merged["specs"] = merged_specs
    return merged


def finalize_grouped_partials(
    merged: dict,
    relation: Relation,
    group_keys: Sequence[str],
    key_columns: Sequence[str],
    specs: Sequence[AggregateSpec],
    out_schema: Schema,
    weighted: bool,
) -> Relation:
    """Assemble the final grouped result from merged morsel partials.

    Kept-cell selection mirrors :func:`grouped_aggregate` exactly: grouped
    queries keep cells with a selected row (weighted: a positively weighted
    selected row); the ungrouped single cell always exists unless weighted
    with zero alive mass.  Ascending cell id is ascending key order, so
    output rows land in the same order as dense execution.
    """
    counts = merged["counts"]
    if group_keys:
        kept = (merged["alive"] > 0) if weighted else (counts > 0)
    else:
        kept = (
            (merged["alive"] > 0) if weighted else np.ones(counts.shape[0], dtype=bool)
        )
    representatives = merged["first"][kept]

    columns: list[np.ndarray] = [
        relation.column(name)[representatives] for name in key_columns
    ]
    for spec, item in zip(specs, merged["specs"]):
        columns.append(_finalize_spec(spec, item, counts, kept, weighted))
    return Relation.from_groups(out_schema, columns)


def _finalize_spec(
    spec: AggregateSpec,
    item: dict | None,
    counts: np.ndarray,
    kept: np.ndarray,
    weighted: bool,
) -> np.ndarray:
    if spec.func == "COUNT":
        if not weighted:
            return counts[kept]
        assert item is not None
        return item["wcount"][kept]
    if not weighted and np.any(counts[kept] == 0):
        raise SchemaError(f"aggregate {spec.to_sql()} over zero rows")
    assert item is not None
    if spec.func == "SUM":
        return item["sum"][kept]
    if spec.func == "AVG":
        if not weighted:
            return item["sum"][kept] / counts[kept]
        if np.any(item["wtot"][kept] <= 0.0):
            raise SchemaError(f"AVG over zero total weight in {spec.to_sql()}")
        return item["wsum"][kept] / item["wtot"][kept]
    assert spec.func in ("MIN", "MAX")
    return item["value"][kept]


_PARTIAL_MERGE_FUNCS = {"sum": "SUM", "min": "MIN", "max": "MAX"}


def merge_partial_aggregates(
    partials: Sequence[Relation],
    group_keys: Sequence[str],
    merge_ops: Sequence[tuple[str, str]],
) -> Relation:
    """Merge shard-level partial-aggregate *relations* into one.

    The cross-shard counterpart of :func:`merge_grouped_partials`: the same
    COUNT/SUM accumulate + MIN/MAX extremum algebra, but operating on whole
    relations that crossed the wire rather than in-process accumulator
    dicts.  ``partials`` share one schema (group keys first, then partial
    aggregate columns); :meth:`Relation.concat` unions the key vocabularies
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


def composite_aggregate_partial(
    relation: Relation,
    group_keys: Sequence[str],
    specs: Sequence[AggregateSpec],
    local_rep_ids: np.ndarray,
    rep_count: int,
    domain_sizes: Sequence[int],
    domain_total: int,
    weights: np.ndarray,
    selection: np.ndarray | None,
    row_offset: int,
) -> dict:
    """One repetition-shard's slice of a composite OPEN aggregation.

    ``relation`` holds the shard's contiguous batch rows, ``local_rep_ids``
    their repetition index *within the shard* (0-based over ``rep_count``
    repetitions).  Because shards split on repetition boundaries, every
    ``(rep, group)`` cell lives wholly inside one shard, and each cell's
    reduction runs over exactly the rows — in exactly the order — the
    unsharded :func:`grouped_aggregate_composite` reduces, so stitching the
    shard blocks back together is bit-identical to the one-pass result.
    """
    cell_codes = encoded_group_codes(relation, group_keys, domain_sizes)
    n = relation.num_rows

    first = np.full(domain_total, NO_ROW, dtype=np.int64)
    if n:
        first[cell_codes[::-1]] = np.arange(
            row_offset + n - 1, row_offset - 1, -1, dtype=np.int64
        )

    composite = local_rep_ids * domain_total + cell_codes
    total_cells = rep_count * domain_total

    if selection is not None:
        sel = np.flatnonzero(np.asarray(selection, dtype=bool))
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
    ).reshape(rep_count, domain_total)

    values = [
        _composite_aggregate_matrix(
            spec,
            relation,
            sel,
            composite_sel,
            weights_sel,
            alive,
            composite_alive,
            total_cells,
        ).reshape(rep_count, domain_total)
        for spec in specs
    ]
    return {"first": first, "present": present, "values": values}


def merge_composite_partials(
    partials: Sequence[dict],
    repetitions: int,
    domain_total: int,
) -> CompositeAggregates:
    """Stitch repetition-shard partials into one :class:`CompositeAggregates`.

    Shards are ordered by repetition range, so present/value blocks simply
    stack; first-occurrence representatives min-merge (cells never occupied
    keep the ``NO_ROW`` sentinel — such cells are never kept, so the
    sentinel is never dereferenced).
    """
    first = partials[0]["first"].copy()
    for partial in partials[1:]:
        np.minimum(first, partial["first"], out=first)
    present = np.vstack([partial["present"] for partial in partials])
    assert present.shape == (repetitions, domain_total)
    values = tuple(
        np.vstack([partial["values"][index] for partial in partials])
        for index in range(len(partials[0]["values"]))
    )
    return CompositeAggregates(
        num_groups=domain_total,
        repetitions=repetitions,
        first_indices=first,
        present=present,
        values=values,
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
