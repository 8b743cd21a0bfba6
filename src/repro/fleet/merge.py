"""Recipe-driven gather: shard partial aggregates -> the final answer.

Each shard answers a scattered SELECT with a partial-aggregate relation
plus a JSON *merge recipe* (:func:`repro.engine.compiler.partial_aggregate_form`;
identical on every shard because it is computed from the plan alone).
This module applies the recipe router-side:

1. concatenate the partials (vocab union + searchsorted remap) and
   re-reduce with :func:`~repro.relational.kernels.merge_partial_aggregates`
   — COUNT/SUM accumulate + MIN/MAX extremum, so fleet answers match
   single-engine answers exactly
   whenever the float summation is exact (see the §8 caveat),
2. reproduce the single-engine zero-row semantics for ungrouped
   aggregates (COUNT over nothing is 0; any other aggregate raises),
3. finalize AVG columns as merged-sum / merged-count,
4. apply the ORDER BY / LIMIT tail the shards were told to skip (a
   per-shard LIMIT would change which groups survive the merge).

Group order needs no repair: :func:`grouped_aggregate` emits groups in
key-sorted order on the shard *and* in the router's re-reduce, so even
without ORDER BY the merged rows land in single-engine order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtocolError, SchemaError
from repro.relational.dtypes import DType
from repro.relational.kernels import merge_partial_aggregates
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema


def _final_schema(recipe: dict, partial_schema: Schema) -> Schema:
    fields: list[Field] = []
    for out in recipe["output"]:
        if out["kind"] == "avg":
            fields.append(Field(out["name"], DType.FLOAT))
        else:
            fields.append(Field(out["name"], partial_schema.dtype(out["name"])))
    return Schema(fields)


def gather_partials(partials: list[Relation], recipe: dict) -> Relation:
    """Merge shard partials into the query's final relation per ``recipe``."""
    if not partials:
        raise ProtocolError("gather needs at least one shard partial")
    if recipe.get("version") != 1:
        raise ProtocolError(f"unknown merge recipe version {recipe.get('version')!r}")
    group_keys = list(recipe["group_keys"])
    merge_ops = [(entry["col"], entry["op"]) for entry in recipe["merge"]]
    merged = merge_partial_aggregates(partials, group_keys, merge_ops)

    if not group_keys and merged.num_rows == 0:
        # Every shard selected zero rows, so the global row set is empty.
        # Reproduce the single-engine semantics the shards deferred:
        # weighted groups with no mass "do not exist" (empty result); an
        # unweighted COUNT-only aggregate reports zero; anything else is
        # an aggregate over zero rows and raises exactly as the single
        # engine would.
        final_schema = _final_schema(recipe, merged.schema)
        if recipe["weighted"]:
            return Relation.empty(final_schema)
        if recipe["count_only"]:
            return Relation.from_columns(
                final_schema,
                {field.name: np.zeros(1, dtype=np.int64) for field in final_schema},
            )
        raise SchemaError(recipe["empty_error"])

    relation = merged
    for out in recipe["output"]:
        if out["kind"] != "avg":
            continue
        totals = np.asarray(relation.column(out["sum"]), dtype=np.float64)
        counts = np.asarray(relation.column(out["count"]), dtype=np.float64)
        relation = relation.with_column(out["name"], DType.FLOAT, totals / counts)
    relation = relation.project([out["name"] for out in recipe["output"]])

    order_by = recipe.get("order_by") or []
    if order_by:
        relation = relation.sort_by(
            [column for column, _ in order_by],
            [bool(ascending) for _, ascending in order_by],
        )
    limit = recipe.get("limit")
    if limit is not None:
        relation = relation.head(int(limit))
    return relation
