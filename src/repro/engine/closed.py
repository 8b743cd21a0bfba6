"""CLOSED query evaluation: the sample as-is, no debiasing.

Paper Sec. 3.3/4: a CLOSED query treats the global population as a global
database and the samples as local views over it — answering with the
sample tuples directly (the LAV data-integration setting).  Population
definitions still apply as view predicates.
"""

from __future__ import annotations

from repro.engine.compiler import compile_select, execute_plan
from repro.engine.plan import LogicalPlan
from repro.engine.planner import PlannedSource
from repro.relational.relation import Relation
from repro.sql.ast_nodes import SelectQuery
from repro.sql.binder import bind_expression


def closed_source(source: PlannedSource) -> tuple[Relation, list[str]]:
    """The raw sample tuples a CLOSED query runs over, view predicate applied."""
    relation = source.sample.relation
    notes = [f"CLOSED: answered from sample {source.sample.name!r} with no reweighting"]

    predicate = source.population.defining_predicate
    if predicate is not None:
        bound = bind_expression(predicate, relation.schema)
        relation = relation.filter(bound.evaluate(relation))
        notes.append(f"applied population view predicate {bound.to_sql()}")

    return relation, notes


def evaluate_closed(
    query: SelectQuery,
    source: PlannedSource,
    plan: LogicalPlan | None = None,
) -> tuple[Relation, list[str]]:
    """Answer ``query`` from the raw sample tuples.

    ``plan`` is the compiled form of ``query`` over the sample's schema —
    passed in by :class:`~repro.core.database.MosaicDB` on plan-cache hits,
    compiled here otherwise.  Returns the result relation plus
    human-readable notes about what the engine did.
    """
    relation, notes = closed_source(source)
    if plan is None:
        plan = compile_select(query, relation.schema, weighted=False)
    return execute_plan(plan, relation), notes
