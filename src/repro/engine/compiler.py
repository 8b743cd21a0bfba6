"""Compile bound SELECT statements into logical plans, and execute plans.

:func:`compile_select` does every piece of work that depends only on the
query text and the input schema — name resolution, bareword binding, type
validation, aggregate classification, output-schema computation — exactly
once.  :func:`execute_plan` then runs the plan over any relation with that
schema: the raw sample (CLOSED), the reweighted sample (SEMI-OPEN), or each
generated sample (OPEN).

``weights`` threads through execution with the paper's reweighting
semantics: filters subset the weight vector alongside the rows, projections
drop zero-weight rows ("a reweighted tuple with zero weight does not
exist"), and aggregation consumes the weights via the vectorized kernels.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.observability.trace import current_trace

from repro.engine.plan import (
    AggregateNode,
    FilterNode,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    SortNode,
)
from repro.errors import SchemaError, SqlCompileError
from repro.relational.aggregates import AggregateSpec
from repro.relational.dtypes import DType
from repro.relational.expressions import ColumnRef, Expr, validate_expression
from repro.relational.kernels import (
    CompositeAggregates,
    composite_aggregate_partial,
    encoded_group_domain,
    finalize_grouped_partials,
    grouped_aggregate,
    grouped_aggregate_composite,
    grouped_aggregate_partial,
    merge_grouped_partials,
)
from repro.relational.ops import distinct as distinct_op
from repro.relational.ops import project_expressions
from repro.relational.predicates import And
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.sql.ast_nodes import SelectItem, SelectQuery
from repro.sql.binder import bind_expression, require_column


def compile_select(
    query: SelectQuery, schema: Schema, weighted: bool = False
) -> LogicalPlan:
    """Bind and validate ``query`` against ``schema``, producing a plan.

    ``weighted`` declares whether execution will supply a weight vector —
    it changes aggregate output dtypes (weighted COUNT/SUM are FLOAT,
    fractional weights) and therefore the plan's output schema, so it is
    part of the plan-cache key.
    """
    nodes: list = []

    if query.where is not None:
        predicate = bind_expression(query.where, schema)
        if validate_expression(predicate, schema) is not DType.BOOL:
            raise SqlCompileError("WHERE predicate must be boolean")
        # Top-level AND conjuncts compile to one FilterNode each; execution
        # ANDs their masks into a single selection vector, so the split
        # costs nothing and keeps plan displays / future per-conjunct
        # optimisations (reordering, short-circuiting) tractable.
        nodes.extend(FilterNode(conjunct) for conjunct in _conjuncts(predicate))

    if query.has_aggregates or query.group_by:
        body = _compile_aggregate(query, schema, weighted)
    else:
        body = _compile_projection(query, schema)
    nodes.append(body)
    current = body.schema

    if query.order_by:
        columns = tuple(require_column(key.column, current) for key in query.order_by)
        nodes.append(SortNode(columns, tuple(key.ascending for key in query.order_by)))
    if query.limit is not None:
        nodes.append(LimitNode(query.limit))

    return LogicalPlan(
        source_schema=schema,
        nodes=tuple(nodes),
        output_schema=current,
        weighted=weighted,
    )


def _conjuncts(predicate) -> list:
    """Flatten top-level ANDs into a list of conjunct predicates."""
    if isinstance(predicate, And):
        return [*_conjuncts(predicate.left), *_conjuncts(predicate.right)]
    return [predicate]


def _compile_projection(query: SelectQuery, schema: Schema) -> ProjectNode:
    exprs: list[Expr] = []
    aliases: list[str] = []
    for item in query.items:
        if item.is_star:
            for name in schema.names:
                exprs.append(ColumnRef(name))
                aliases.append(name)
            continue
        assert item.expr is not None
        exprs.append(bind_expression(item.expr, schema))
        aliases.append(item.alias or item.default_alias())
    fields = [
        Field(alias, validate_expression(expr, schema))
        for expr, alias in zip(exprs, aliases)
    ]
    return ProjectNode(
        exprs=tuple(exprs),
        aliases=tuple(aliases),
        schema=Schema(fields),
        distinct=query.distinct,
    )


def _compile_aggregate(
    query: SelectQuery, schema: Schema, weighted: bool
) -> AggregateNode:
    group_keys = [require_column(name, schema) for name in query.group_by]

    key_items: list[tuple[SelectItem, str]] = []
    agg_items: list[tuple[SelectItem, AggregateSpec]] = []
    for item in query.items:
        if item.is_star:
            raise SqlCompileError("SELECT * cannot be combined with aggregates")
        if item.is_aggregate:
            assert item.func is not None
            expr = None if item.expr is None else bind_expression(item.expr, schema)
            spec = AggregateSpec(item.func, expr, item.alias or item.default_alias())
            agg_items.append((item, spec))
        else:
            column = _as_group_column(item, group_keys, schema)
            key_items.append((item, column))

    fields = [Field(item.alias or column, schema.dtype(column)) for item, column in key_items]
    for item, spec in agg_items:
        fields.append(Field(spec.alias, spec.output_dtype(schema, weighted)))

    return AggregateNode(
        group_keys=tuple(group_keys),
        key_columns=tuple(column for _, column in key_items),
        specs=tuple(spec for _, spec in agg_items),
        schema=Schema(fields),
    )


def _as_group_column(item: SelectItem, group_keys: list[str], schema: Schema) -> str:
    if not isinstance(item.expr, (ColumnRef,)) and not hasattr(item.expr, "name"):
        raise SqlCompileError(
            "non-aggregate SELECT items in an aggregate query must be "
            f"plain GROUP BY columns, got {item.default_alias()!r}"
        )
    name = item.expr.name  # ColumnRef or Identifier both expose .name
    column = require_column(name, schema)
    if column not in group_keys:
        raise SqlCompileError(
            f"column {column!r} appears in SELECT but not in GROUP BY"
        )
    return column


def execute_plan(
    plan: LogicalPlan,
    relation: Relation,
    weights: np.ndarray | None = None,
    *,
    parallel=None,
    share_key: tuple | None = None,
) -> Relation:
    """Run ``plan`` over ``relation`` (the implicit Scan input).

    The relation's schema must equal the schema the plan was compiled
    against — the invariant that makes cached plans safe to reuse.

    ``parallel`` is an execution context (duck-typed; see
    :class:`repro.core.workers.ParallelExecution`).  When supplied and the
    relation exceeds the context's morsel threshold, decomposable aggregate
    plans run morsel-partitioned: the scan splits into fixed row ranges,
    each morsel reduces to mergeable partials, and the partials merge in
    morsel order.  Crucially the *decomposition is a function of the data
    and the threshold only* — a context with zero worker processes runs the
    identical morsel loop in-process — so results never depend on how many
    workers (if any) executed the morsels.  They *are* a function of the
    threshold itself: float SUM/AVG partials accumulate per-morsel and
    merge in morsel order, which can differ in the last ulp from the
    single-pass kernels (so changing ``MOSAIC_MORSEL_ROWS``, or comparing
    against a run without a parallel context, is a numerics-affecting
    configuration change — see ARCHITECTURE.md §7).  Plans the morsel
    path cannot decompose (projections, numeric/unencoded group keys,
    degenerate key domains) fall back to the dense single-pass kernels
    below.
    """
    if relation.schema != plan.source_schema:
        raise SchemaError(
            f"plan compiled against {plan.source_schema!r} cannot run over "
            f"{relation.schema!r}"
        )
    if (weights is not None) != plan.weighted:
        raise SchemaError(
            "plan weightedness mismatch: compiled "
            f"{'weighted' if plan.weighted else 'unweighted'} but executed "
            f"{'with' if weights is not None else 'without'} weights"
        )
    if parallel is not None and relation.num_rows > parallel.morsel_rows:
        layout = partition_layout(plan, relation)
        if layout is not None:
            return _execute_plan_partitioned(
                plan, relation, weights, parallel, layout, share_key
            )
        parallel.note_fallback()
    # Filters never materialise: each FilterNode evaluates to a boolean
    # mask that ANDs into a single selection vector.  The selection is
    # consumed exactly once — Project materialises the surviving rows (one
    # copy, with dictionary encodings sliced along), while Aggregate hands
    # it straight to the grouped kernels, which slice the scan relation's
    # memoized group codes instead of re-encoding filtered columns.
    trace = current_trace()
    node_log: list | None = None
    if trace is not None and trace.explain:
        # EXPLAIN ANALYZE only: per-node surviving-row counts and timings
        # (the sampled hot path pays just the two None checks per node).
        node_log = trace.meta.setdefault("plan_nodes", [])
        node_log.append({"node": "Scan", "rows": relation.num_rows, "ms": 0.0})
    selection: np.ndarray | None = None
    for node in plan.nodes:
        node_started = perf_counter() if node_log is not None else 0.0
        if isinstance(node, FilterNode):
            mask = np.asarray(node.predicate.evaluate(relation), dtype=bool)
            selection = mask if selection is None else selection & mask
        elif isinstance(node, ProjectNode):
            if weights is not None:
                # A reweighted tuple with zero weight "does not exist".
                zero_alive = weights > 0.0
                selection = (
                    zero_alive if selection is None else selection & zero_alive
                )
                weights = None
            if selection is not None:
                relation = relation.filter(selection)
                selection = None
            relation = project_expressions(relation, node.exprs, node.aliases)
            if node.distinct:
                relation = distinct_op(relation)
        elif isinstance(node, AggregateNode):
            relation = grouped_aggregate(
                relation,
                node.group_keys,
                node.key_columns,
                node.specs,
                node.schema,
                weights,
                selection,
            )
            weights = None
            selection = None
        elif isinstance(node, SortNode):
            relation = relation.sort_by(list(node.columns), list(node.ascending))
        elif isinstance(node, LimitNode):
            relation = relation.head(node.count)
        else:  # pragma: no cover - exhaustive over PlanNode
            raise SqlCompileError(f"unknown plan node {type(node).__name__}")
        if node_log is not None:
            rows = (
                int(selection.sum()) if selection is not None else relation.num_rows
            )
            node_log.append(
                {
                    "node": node.describe(),
                    "rows": rows,
                    "ms": round((perf_counter() - node_started) * 1e3, 4),
                }
            )
    return relation


def execute_plan_composite(
    plan: LogicalPlan,
    relation: Relation,
    rep_ids: np.ndarray,
    repetitions: int,
    weights: np.ndarray,
) -> tuple[AggregateNode, CompositeAggregates]:
    """Run an aggregate ``plan`` once over a batched OPEN generation.

    ``relation`` stacks ``repetitions`` generated samples (``rep_ids``
    assigns each row to its repetition); filters evaluate over the whole
    batch into one selection vector, and the aggregate reduces composite
    ``(rep, group)`` codes in a single kernel pass — the query executes
    *once* instead of once per repetition.  Returns the plan's aggregate
    node plus the per-(repetition, group) results for
    :func:`~repro.engine.open_world.combine_composite_answers`; Sort/Limit
    nodes are intentionally not handled here — ordering is applied to the
    combined answer, and plans with LIMIT take the per-repetition path
    (a per-repetition LIMIT changes which groups each answer contains).
    """
    if relation.schema != plan.source_schema:
        raise SchemaError(
            f"plan compiled against {plan.source_schema!r} cannot run over "
            f"{relation.schema!r}"
        )
    if not plan.weighted:
        raise SchemaError("batched OPEN execution requires a weighted plan")
    selection: np.ndarray | None = None
    for node in plan.nodes:
        if isinstance(node, FilterNode):
            mask = np.asarray(node.predicate.evaluate(relation), dtype=bool)
            selection = mask if selection is None else selection & mask
        elif isinstance(node, AggregateNode):
            return node, grouped_aggregate_composite(
                relation,
                node.group_keys,
                node.specs,
                rep_ids,
                repetitions,
                weights,
                selection,
            )
        elif isinstance(node, (SortNode, LimitNode)):
            raise SchemaError(
                "composite execution saw a Sort/Limit node before the "
                "aggregate; this plan must use the per-repetition path"
            )
        else:
            raise SchemaError(
                "composite execution requires an aggregate plan, got "
                f"{type(node).__name__}"
            )
    raise SchemaError("composite execution requires an aggregate plan")


# --------------------------------------------------------------------- #
# Morsel-partitioned execution (multi-process scan parallelism)
# --------------------------------------------------------------------- #

#: Hard ceiling on the group-key cell domain a partitioned plan may use.
#: The partials allocate O(cells) per spec per morsel; a vocab cross-product
#: far beyond the row count signals a degenerate key combination where the
#: dense in-process kernels are the better plan anyway.
MAX_PARTITION_CELLS = 1 << 22


def partition_layout(
    plan: LogicalPlan, relation: Relation
) -> tuple[AggregateNode, tuple, tuple[int, ...], int] | None:
    """Can ``plan`` run as mergeable morsel partials over ``relation``?

    Decomposable shape: optional filters, one aggregate, optional sort /
    limit tail — and every GROUP BY key must carry a storage encoding so
    cell ids mean the same key values in every morsel (see
    :func:`~repro.relational.kernels.encoded_group_domain`).  Returns
    ``(aggregate, tail_nodes, domain_sizes, total_cells)`` or ``None``.
    """
    aggregate: AggregateNode | None = None
    tail: list = []
    for node in plan.nodes:
        if isinstance(node, FilterNode) and aggregate is None:
            continue
        if isinstance(node, AggregateNode) and aggregate is None:
            aggregate = node
        elif isinstance(node, (SortNode, LimitNode)) and aggregate is not None:
            tail.append(node)
        else:
            return None
    if aggregate is None:
        return None
    domain = encoded_group_domain(relation, aggregate.group_keys)
    if domain is None:
        return None
    sizes, total = domain
    if total > min(MAX_PARTITION_CELLS, max(1 << 16, 8 * relation.num_rows)):
        return None
    return aggregate, tuple(tail), sizes, total


def morsel_ranges(num_rows: int, morsel_rows: int) -> list[tuple[int, int]]:
    """The fixed morsel decomposition of ``num_rows`` (pure function)."""
    step = max(1, morsel_rows)
    return [(start, min(start + step, num_rows)) for start in range(0, num_rows, step)]


def execute_plan_morsel(
    plan: LogicalPlan,
    relation: Relation,
    start: int,
    stop: int,
    weights: np.ndarray | None,
    domain_sizes: tuple[int, ...],
    total_cells: int,
    row_offset: int | None = None,
) -> dict:
    """One morsel's plan fragment: filters + partial aggregation.

    The single fragment executor both the in-process morsel loop and the
    worker processes run — same code, same inputs, same partial out.
    ``row_offset`` is the morsel's global first-row index when ``relation``
    is already a window onto the full relation (worker-side windowed
    attach): representative row ids must stay global because the parent
    finalizes against the whole relation.  ``None`` means ``relation`` is
    the full relation and ``start`` is the global offset.
    """
    morsel = relation.slice_rows(start, stop)
    selection: np.ndarray | None = None
    aggregate: AggregateNode | None = None
    for node in plan.nodes:
        if isinstance(node, FilterNode):
            mask = np.asarray(node.predicate.evaluate(morsel), dtype=bool)
            selection = mask if selection is None else selection & mask
        elif isinstance(node, AggregateNode):
            aggregate = node
            break
    assert aggregate is not None  # guaranteed by partition_layout
    morsel_weights = None if weights is None else weights[start:stop]
    return grouped_aggregate_partial(
        morsel,
        aggregate.group_keys,
        aggregate.specs,
        domain_sizes,
        total_cells,
        morsel_weights,
        selection,
        start if row_offset is None else row_offset,
    )


def _execute_plan_partitioned(
    plan: LogicalPlan,
    relation: Relation,
    weights: np.ndarray | None,
    parallel,
    layout: tuple[AggregateNode, tuple, tuple[int, ...], int],
    share_key: tuple | None = None,
) -> Relation:
    """Morsel-partitioned execution: partition, map, merge, finalize, tail."""
    aggregate, tail, domain_sizes, total_cells = layout
    ranges = morsel_ranges(relation.num_rows, parallel.morsel_rows)
    partials = parallel.map_morsels(
        plan, relation, weights, ranges, domain_sizes, total_cells, share_key
    )
    merged = merge_grouped_partials(partials, aggregate.specs, weights is not None)
    result = finalize_grouped_partials(
        merged,
        relation,
        aggregate.group_keys,
        aggregate.key_columns,
        aggregate.specs,
        aggregate.schema,
        weights is not None,
    )
    for node in tail:
        if isinstance(node, SortNode):
            result = result.sort_by(list(node.columns), list(node.ascending))
        else:
            result = result.head(node.count)
    return result


# --------------------------------------------------------------------- #
# Cross-shard partial aggregation (fleet scatter/gather)
# --------------------------------------------------------------------- #

#: Shared denominator column partial AVG specs divide by after the merge:
#: COUNT(*) of the selected rows (their total weight when weighted) — the
#: exact denominator the one-pass AVG kernel uses.
PARTIAL_COUNT_COLUMN = "__partial_count"

_PARTIAL_MERGE_OPS = {"COUNT": "sum", "SUM": "sum", "MIN": "min", "MAX": "max"}


class PartialAggregateForm:
    """A decomposable aggregate plan split for shard-local partial execution.

    ``partial_aggregate`` replaces the plan's aggregate with shard-locally
    computable pieces (AVG becomes SUM + a shared COUNT denominator); the
    JSON-safe ``recipe`` tells the gatherer how to merge the shards'
    partial relations back into the original output — the same COUNT/SUM
    accumulate + MIN/MAX extremum + AVG-as-sum-over-count algebra the
    morsel partials use (:func:`merge_grouped_partials`), expressed at the
    relation level so it can cross the wire.
    """

    __slots__ = ("filters", "aggregate", "partial_aggregate", "recipe")

    def __init__(self, filters, aggregate, partial_aggregate, recipe):
        self.filters = filters
        self.aggregate = aggregate
        self.partial_aggregate = partial_aggregate
        self.recipe = recipe


def partial_aggregate_form(plan: LogicalPlan) -> PartialAggregateForm | None:
    """Split ``plan`` into shard-partial form, or ``None`` if not decomposable.

    Decomposable shape mirrors :func:`partition_layout` — optional filters,
    one aggregate, optional sort/limit tail — but without the encoded-key
    requirement: the gatherer merges whole relations (vocab union +
    searchsorted remap in :meth:`Relation.concat`), so group keys need no
    shared cell domain.  Sort/limit move into the recipe: shards must not
    apply them (a per-shard LIMIT changes which groups survive), the
    gatherer applies them after the merge.
    """
    filters: list[FilterNode] = []
    aggregate: AggregateNode | None = None
    tail: list = []
    for node in plan.nodes:
        if isinstance(node, FilterNode) and aggregate is None:
            filters.append(node)
        elif isinstance(node, AggregateNode) and aggregate is None:
            aggregate = node
        elif isinstance(node, (SortNode, LimitNode)) and aggregate is not None:
            tail.append(node)
        else:
            return None
    if aggregate is None:
        return None

    num_keys = len(aggregate.key_columns)
    key_fields = list(aggregate.schema.fields[:num_keys])
    partial_specs: list[AggregateSpec] = []
    partial_fields: list[Field] = list(key_fields)
    merge: list[dict] = []
    output: list[dict] = []
    needs_count = False
    empty_error: str | None = None
    count_only = True

    for field in key_fields:
        output.append({"kind": "key", "name": field.name})
    source, weighted = plan.source_schema, plan.weighted
    for spec in aggregate.specs:
        if spec.func != "COUNT":
            count_only = False
            if empty_error is None:
                empty_error = f"aggregate {spec.to_sql()} over zero rows"
        if spec.func == "AVG":
            assert spec.expr is not None
            sum_alias = f"__partial_sum_{spec.alias}"
            sum_spec = AggregateSpec("SUM", spec.expr, sum_alias)
            partial_specs.append(sum_spec)
            partial_fields.append(Field(sum_alias, sum_spec.output_dtype(source, weighted)))
            merge.append({"col": sum_alias, "op": "sum"})
            output.append(
                {
                    "kind": "avg",
                    "name": spec.alias,
                    "sum": sum_alias,
                    "count": PARTIAL_COUNT_COLUMN,
                }
            )
            needs_count = True
        else:
            partial_specs.append(spec)
            partial_fields.append(Field(spec.alias, spec.output_dtype(source, weighted)))
            merge.append({"col": spec.alias, "op": _PARTIAL_MERGE_OPS[spec.func]})
            output.append({"kind": "agg", "name": spec.alias})
    if needs_count:
        count_spec = AggregateSpec("COUNT", None, PARTIAL_COUNT_COLUMN)
        partial_specs.append(count_spec)
        partial_fields.append(
            Field(PARTIAL_COUNT_COLUMN, count_spec.output_dtype(source, weighted))
        )
        merge.append({"col": PARTIAL_COUNT_COLUMN, "op": "sum"})

    order_by: list[list] = []
    limit: int | None = None
    for node in tail:
        if isinstance(node, SortNode):
            order_by = [
                [column, bool(asc)] for column, asc in zip(node.columns, node.ascending)
            ]
        else:
            limit = node.count

    recipe = {
        "version": 1,
        "group_keys": [field.name for field in key_fields],
        "weighted": bool(weighted),
        "merge": merge,
        "output": output,
        "count_only": count_only,
        "empty_error": empty_error,
        "order_by": order_by,
        "limit": limit,
    }
    partial_aggregate = AggregateNode(
        group_keys=aggregate.group_keys,
        key_columns=aggregate.key_columns,
        specs=tuple(partial_specs),
        schema=Schema(partial_fields),
    )
    return PartialAggregateForm(tuple(filters), aggregate, partial_aggregate, recipe)


def execute_plan_partial(
    form: PartialAggregateForm,
    relation: Relation,
    weights: np.ndarray | None = None,
) -> Relation:
    """One shard's fragment of a scattered aggregate: filters + partials.

    Returns the shard's partial-aggregate relation (partial schema).  An
    ungrouped aggregate over zero selected rows returns an *empty* partial
    instead of raising or emitting a zero row: whether the global row set
    is empty is only known after the merge, so the gatherer reproduces the
    single-engine raise / COUNT-0 semantics from the merged total (see
    ``recipe["count_only"]`` / ``recipe["empty_error"]``).
    """
    selection: np.ndarray | None = None
    for node in form.filters:
        mask = np.asarray(node.predicate.evaluate(relation), dtype=bool)
        selection = mask if selection is None else selection & mask
    aggregate = form.partial_aggregate
    if not aggregate.group_keys:
        selected = int(selection.sum()) if selection is not None else relation.num_rows
        if selected == 0:
            return Relation.empty(aggregate.schema)
    return grouped_aggregate(
        relation,
        aggregate.group_keys,
        aggregate.key_columns,
        aggregate.specs,
        aggregate.schema,
        weights,
        selection,
    )


def composite_layout(
    plan: LogicalPlan, relation: Relation
) -> tuple[AggregateNode, tuple[int, ...], int] | None:
    """Can an OPEN repetition chunk shard across repetitions on the pool?

    Same key-encoding requirement as :func:`partition_layout`; the plan
    shape is already constrained by :func:`execute_plan_composite` (filters
    then aggregate; any sort tail is applied to the combined answer).
    """
    aggregate = next(
        (node for node in plan.nodes if isinstance(node, AggregateNode)), None
    )
    if aggregate is None:
        return None
    domain = encoded_group_domain(relation, aggregate.group_keys)
    if domain is None:
        return None
    sizes, total = domain
    if total > min(MAX_PARTITION_CELLS, max(1 << 16, 8 * relation.num_rows)):
        return None
    return aggregate, sizes, total


def execute_plan_open_shard(
    plan: LogicalPlan,
    relation: Relation,
    local_rep_ids: np.ndarray,
    rep_count: int,
    weight_value: float,
    domain_sizes: tuple[int, ...],
    domain_total: int,
    row_offset: int,
) -> dict:
    """One repetition-shard's fragment of a batched OPEN execution.

    ``relation`` is the shard's contiguous slice of the (view-filtered)
    generation batch; uniform weights are rebuilt from the scalar — the
    same ``np.full`` value the one-pass path uses, so no weight vector
    crosses the process boundary.
    """
    selection: np.ndarray | None = None
    aggregate: AggregateNode | None = None
    for node in plan.nodes:
        if isinstance(node, FilterNode):
            mask = np.asarray(node.predicate.evaluate(relation), dtype=bool)
            selection = mask if selection is None else selection & mask
        elif isinstance(node, AggregateNode):
            aggregate = node
            break
    assert aggregate is not None
    weights = np.full(relation.num_rows, weight_value)
    return composite_aggregate_partial(
        relation,
        aggregate.group_keys,
        aggregate.specs,
        local_rep_ids,
        rep_count,
        domain_sizes,
        domain_total,
        weights,
        selection,
        row_offset,
    )
