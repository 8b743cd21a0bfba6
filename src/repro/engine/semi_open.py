"""SEMI-OPEN query evaluation: sample reweighting (paper Sec. 4.1, Fig. 3).

Decision ladder:

1. **Known mechanism** — inverse-inclusion-probability weights from the
   sample's declaration (exact for uniform; stratified recovers stratum
   sizes from metadata).
2. **Query-population metadata** — IPF directly against the query
   population's marginals, over the sample tuples restricted to the
   population's view predicate (Fig. 3's bottom dashed line; more accurate
   because population-local bias is fit directly).
3. **Global-population metadata** — IPF against the GP marginals over the
   whole sample, then apply the population view predicate (Fig. 3's left
   dashed line).

With none of the three available the query cannot be answered SEMI-OPEN
and a :class:`VisibilityError` explains why.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.catalog.catalog import Catalog
from repro.engine.compiler import compile_select, execute_plan
from repro.engine.plan import LogicalPlan
from repro.engine.planner import PlannedSource
from repro.errors import ReweightError, VisibilityError
from repro.observability.trace import current_trace
from repro.relational.relation import Relation
from repro.reweight.contingency import CellAssignment
from repro.reweight.inverse_probability import declared_mechanism_weights
from repro.reweight.ipf import IpfResult, ipf_reweight
from repro.sql.ast_nodes import SelectQuery
from repro.sql.binder import bind_expression


def evaluate_semi_open(
    query: SelectQuery,
    source: PlannedSource,
    catalog: Catalog,
    plan: LogicalPlan | None = None,
    reweighted: tuple[Relation, np.ndarray, list[str]] | None = None,
    *,
    parallel=None,
    share_key: tuple | None = None,
) -> tuple[Relation, list[str]]:
    """Answer ``query`` from the reweighted sample.

    ``plan`` is the compiled form of ``query`` over the sample's schema and
    ``reweighted`` a precomputed ``(relation, weights, notes)`` triple —
    both supplied by :class:`~repro.core.database.MosaicDB` on cache hits,
    recomputed here otherwise.  ``parallel`` is the engine's
    :class:`~repro.core.workers.ParallelExecution` context; ``share_key``
    the stable shared-memory identity of the reweighted source (keyed on
    the same version stamp as the reweight cache, so worker processes keep
    reusing one segment across queries).
    """
    if reweighted is None:
        reweighted = reweighted_sample(source, catalog)
    relation, weights, notes = reweighted
    if plan is None:
        plan = compile_select(query, relation.schema, weighted=True)
    return (
        execute_plan(plan, relation, weights, parallel=parallel, share_key=share_key),
        list(notes),
    )


def reweighted_sample(
    source: PlannedSource,
    catalog: Catalog,
    assignments: list[CellAssignment] | None = None,
) -> tuple[Relation, np.ndarray, list[str]]:
    """The (possibly view-filtered) sample tuples and their debiased weights.

    Shared by SEMI-OPEN evaluation and by anything else that needs a
    debiased sample (e.g. Bayesian-network fitting).

    ``assignments`` is :func:`~repro.reweight.ipf.ipf_reweight`'s in/out
    list for a rake over the sample's own tuples: the engine passes the
    cell assignments it retained from this source's previous rake (or an
    empty list) and keeps what comes back.  A rake over a view-filtered
    copy of the tuples, or no rake at all, leaves it as it was.
    """
    sample = source.sample
    population = source.population
    gp = catalog.global_population
    notes: list[str] = []

    # --- 1. Known mechanism -> inverse probability weights over the GP. ---
    if sample.mechanism is not None:
        gp_marginals = gp.marginal_list() if gp is not None else []
        try:
            weights = declared_mechanism_weights(sample, gp_marginals)
            notes.append(
                f"SEMI-OPEN: inverse-probability weights from known mechanism "
                f"{sample.mechanism.describe()}"
            )
            relation, weights, view_note = _apply_view(
                sample.relation, weights, population
            )
            notes.extend(view_note)
            return relation, weights, notes
        except ReweightError as exc:
            notes.append(
                f"known mechanism unusable ({exc}); falling back to IPF"
            )

    # --- 2. Metadata on the query population itself. ---
    if population.has_metadata:
        relation, weights0, view_note = _apply_view(
            sample.relation, sample.weights, population
        )
        if relation.num_rows == 0:
            raise VisibilityError(
                f"sample {sample.name!r} has no tuples inside population "
                f"{population.name!r}; SEMI-OPEN cannot answer (OPEN could)"
            )
        if relation is not sample.relation:
            assignments = None  # view-filtered rows extend no retained prefix
        result = _rake(relation, population.marginal_list(), weights0, assignments)
        notes.extend(view_note)
        notes.append(
            f"SEMI-OPEN: IPF against {len(population.marginals)} marginal(s) of "
            f"population {population.name!r} "
            f"({result.iterations} iterations, converged={result.converged})"
        )
        _note_unreachable(result, notes)
        return relation, result.weights, notes

    # --- 3. Metadata on the global population, view applied afterwards. ---
    if gp is not None and gp.has_metadata and gp.name != population.name:
        result = _rake(
            sample.relation, gp.marginal_list(), sample.weights, assignments
        )
        notes.append(
            f"SEMI-OPEN: IPF against global population {gp.name!r} metadata "
            f"({result.iterations} iterations, converged={result.converged}); "
            "query population treated as a view (paper notes lower accuracy "
            "than population-local metadata)"
        )
        _note_unreachable(result, notes)
        relation, weights, view_note = _apply_view(
            sample.relation, result.weights, population
        )
        notes.extend(view_note)
        return relation, weights, notes

    raise VisibilityError(
        f"population {population.name!r} has no usable sampling mechanism and no "
        "marginal metadata; SEMI-OPEN queries need one of the two "
        "(CREATE METADATA ... or declare USING MECHANISM ...)"
    )


def _rake(
    relation: Relation,
    marginals: list,
    initial_weights: np.ndarray,
    assignments: list[CellAssignment] | None,
) -> IpfResult:
    """IPF over ``relation``; on a traced statement, one span saying what
    the rake cost and how it ended."""
    rows_kept = assignments[0].row_cell.shape[0] if assignments else 0
    trace = current_trace()
    with (
        trace.span("semi_open.reweight", rows=relation.num_rows)
        if trace is not None
        else nullcontext({})
    ) as span:
        result = ipf_reweight(
            relation,
            marginals,
            initial_weights=initial_weights,
            assignments=assignments,
        )
        span.update(
            rows_assigned=relation.num_rows - rows_kept,
            extended=rows_kept > 0,
            iterations=result.iterations,
            converged=result.converged,
            stalled=result.stalled,
            max_relative_error=result.max_relative_error,
        )
    return result


def _apply_view(
    relation: Relation,
    weights: np.ndarray,
    population,
) -> tuple[Relation, np.ndarray, list[str]]:
    predicate = population.defining_predicate
    if predicate is None:
        return relation, weights, []
    bound = bind_expression(predicate, relation.schema)
    mask = np.asarray(bound.evaluate(relation), dtype=bool)
    return (
        relation.filter(mask),
        weights[mask],
        [f"applied population view predicate {bound.to_sql()}"],
    )


def _note_unreachable(result, notes: list[str]) -> None:
    unreachable = sum(result.unreachable_mass)
    if unreachable > 0:
        notes.append(
            f"warning: {unreachable:g} units of marginal mass fall in cells "
            "with no sample tuples (false negatives; use OPEN to generate them)"
        )
