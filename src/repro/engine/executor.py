"""SELECT evaluation over a concrete (optionally weighted) relation.

This is the bottom of every visibility path: once CLOSED/SEMI-OPEN/OPEN
processing has produced tuples and weights, the executor applies the
user's WHERE / GROUP BY / aggregates / ORDER BY / LIMIT with the paper's
weighted-aggregate rewrite.

Since the compiled-pipeline refactor this module is a thin convenience
wrapper: :func:`execute_select` compiles a fresh
:class:`~repro.engine.plan.LogicalPlan` and runs it (WHERE clauses execute
as selection vectors over the scan — see ``repro.engine.plan``).  Callers that execute
the same SQL repeatedly (:class:`~repro.core.database.MosaicDB`) compile
once via :func:`~repro.engine.compiler.compile_select`, cache the plan, and
call :func:`~repro.engine.compiler.execute_plan` directly.
"""

from __future__ import annotations

import numpy as np

from repro.engine.compiler import compile_select, execute_plan
from repro.relational.relation import Relation
from repro.sql.ast_nodes import SelectQuery

__all__ = ["execute_select", "compile_select", "execute_plan"]


def execute_select(
    query: SelectQuery,
    relation: Relation,
    weights: np.ndarray | None = None,
) -> Relation:
    """Evaluate ``query`` over ``relation``.

    ``weights`` triggers weighted-aggregate semantics; zero-weight rows are
    excluded from non-aggregate output (a reweighted tuple with zero weight
    "does not exist").
    """
    plan = compile_select(query, relation.schema, weighted=weights is not None)
    return execute_plan(plan, relation, weights)
