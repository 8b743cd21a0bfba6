"""Iterative Proportional Fitting on tuple weights ("raking").

The paper (Sec. 4.1): *"Mosaic leverages the IPF technique presented in
[42] to answer arbitrary queries over samples.  Specifically, we reweight
the sample so that the given marginals are satisfied."*

Classical IPF ([13] Deming & Stephan 1940, [27] Sinkhorn) iterates over the
target marginals, scaling each contingency cell's mass by
``target / current``.  Operating on *tuple weights* (raking) is the same
algorithm restricted to the cells the sample occupies, keeping weights
within a cell proportional to their current values — which also avoids
materialising the full cross-product contingency cube.

Structural zeros are reported, not hidden: marginal mass in cells with no
sample tuples is unreachable by reweighting alone (``unreachable_mass``),
which is exactly the false-negative gap that motivates OPEN queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.catalog.metadata import Marginal
from repro.errors import ConvergenceError, ReweightError
from repro.relational.relation import Relation
from repro.reweight.contingency import CellAssignment, assign_cells
from repro.reweight.weights import validate_weights


@dataclass(frozen=True)
class IpfResult:
    """Outcome of an IPF run.

    ``max_relative_error`` measures the worst marginal-cell misfit among
    the cells that are *reachable* (target > 0 and occupied by at least one
    sample row); unreachable target mass is reported separately per
    marginal in ``unreachable_mass``.  ``stalled`` flags runs cut short by
    the stall detector: the error stopped improving (conflicting marginals
    make raking oscillate around a fixed misfit floor), so further passes
    would only burn time without changing the answer quality.
    """

    weights: np.ndarray
    iterations: int
    converged: bool
    max_relative_error: float
    unreachable_mass: tuple[float, ...]
    stalled: bool = False

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def ipf_reweight(
    relation: Relation,
    marginals: list[Marginal],
    initial_weights: np.ndarray | None = None,
    max_iterations: int = 200,
    tolerance: float = 1e-8,
    raise_on_failure: bool = False,
    stall_window: int = 8,
    stall_improvement: float = 0.01,
    assignments: list[CellAssignment] | None = None,
) -> IpfResult:
    """Rake ``relation``'s tuple weights to satisfy ``marginals``.

    Parameters
    ----------
    relation:
        The sample tuples.
    marginals:
        1-D / 2-D target marginals whose attributes all exist in
        ``relation``.
    initial_weights:
        Starting weights (all ones when omitted — the paper's
        initialisation, Sec. 3.2).
    max_iterations:
        Full passes over all marginals.
    tolerance:
        Convergence threshold on the maximum relative cell error over
        reachable cells.
    raise_on_failure:
        Raise :class:`ConvergenceError` instead of returning a
        non-converged result.
    stall_window / stall_improvement:
        Stop early when the best error of the last ``stall_window``
        iterations improved less than ``stall_improvement`` (relative) over
        the best error before the window.  Jointly unsatisfiable marginals
        make raking oscillate forever at a fixed misfit floor; detecting
        the stall returns the same answer quality in a handful of passes
        instead of ``max_iterations``.  ``stall_window=0`` disables.
    assignments:
        In and out.  On entry either empty or, per marginal, the cell
        assignment of a row prefix of ``relation`` (an earlier rake of the
        same rows before more were appended): only the rows after the
        prefix are assigned.  On return it holds this run's assignments.
        The weights do not depend on it.
    """
    if not marginals:
        raise ReweightError("IPF needs at least one marginal")
    if relation.num_rows == 0:
        raise ReweightError("IPF needs a non-empty sample")

    if initial_weights is None:
        weights = np.ones(relation.num_rows, dtype=np.float64)
    else:
        weights = validate_weights(initial_weights).copy()
        if weights.shape[0] != relation.num_rows:
            raise ReweightError(
                f"initial weights length {weights.shape[0]} does not match "
                f"sample rows {relation.num_rows}"
            )

    priors = assignments or [None] * len(marginals)
    if len(priors) != len(marginals):
        raise ReweightError(
            f"{len(priors)} prior cell assignment(s) for {len(marginals)} marginal(s)"
        )
    fitted = [
        assign_cells(relation, marginal, extend=prior)
        for marginal, prior in zip(marginals, priors)
    ]
    if assignments is not None:
        assignments[:] = fitted

    # Rows in cells the marginals give zero mass can never carry weight.
    for assignment in fitted:
        dead_cells = assignment.target_mass <= 0.0
        weights[dead_cells[assignment.row_cell]] = 0.0

    if not np.any(weights > 0):
        raise ReweightError(
            "every sample tuple falls in zero-mass marginal cells; "
            "the sample is disjoint from the declared population"
        )

    plans = [_RakePlan(assignment) for assignment in fitted]
    iterations = 0
    error = np.inf
    stalled = False
    errors: list[float] = []
    for iterations in range(1, max_iterations + 1):
        for plan in plans:
            weights = plan.rake(weights)
        error = _max_relative_error(weights, plans)
        if error <= tolerance:
            break
        errors.append(error)
        if error_trajectory_stalled(errors, stall_window, stall_improvement):
            stalled = True
            break

    converged = error <= tolerance
    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"IPF failed to reach tolerance {tolerance:g} "
            f"(max relative error {error:g})",
            iterations=iterations,
        )

    return IpfResult(
        weights=weights,
        iterations=iterations,
        converged=converged,
        max_relative_error=float(error),
        unreachable_mass=tuple(a.unreachable_mass() for a in fitted),
        stalled=stalled,
    )


class _RakePlan:
    """Per-marginal raking state, precomputed once per IPF run.

    Everything that does not depend on the current weights — the fittable
    masks, reachable-cell indices, and the zero-target factor template —
    is hoisted out of the iteration loop, leaving one ``bincount``, one
    masked divide, and one gather-multiply per raking step.
    """

    def __init__(self, assignment: CellAssignment):
        self.assignment = assignment
        self.row_cell = assignment.row_cell
        self.num_cells = assignment.num_cells
        self.target = assignment.target_mass
        self.positive_target = self.target > 0.0
        # Cells with zero target rake to factor 0, others default to 1.
        self.factor_template = np.where(self.positive_target, 1.0, 0.0)
        reachable = assignment.occupied & self.positive_target
        self.reachable = np.flatnonzero(reachable)
        self.reachable_target = self.target[self.reachable]

    def achieved(self, weights: np.ndarray) -> np.ndarray:
        return np.bincount(self.row_cell, weights=weights, minlength=self.num_cells)

    def rake(self, weights: np.ndarray) -> np.ndarray:
        """One raking step: scale weights so this marginal is matched exactly."""
        achieved = self.achieved(weights)
        factors = self.factor_template.copy()
        fittable = self.positive_target & (achieved > 0.0)
        np.divide(self.target, achieved, out=factors, where=fittable)
        return weights * factors[self.row_cell]

    def error(self, weights: np.ndarray) -> float:
        """Worst relative misfit over this marginal's reachable cells."""
        if self.reachable.shape[0] == 0:
            return 0.0
        achieved = self.achieved(weights)[self.reachable]
        relative = np.abs(achieved - self.reachable_target) / self.reachable_target
        return float(np.max(relative))


def _max_relative_error(weights: np.ndarray, plans: list[_RakePlan]) -> float:
    """Worst relative misfit across all reachable marginal cells."""
    worst = 0.0
    for plan in plans:
        worst = max(worst, plan.error(weights))
    return worst


def error_trajectory_stalled(errors: list[float], window: int, improvement: float) -> bool:
    """Has the error trajectory stopped improving?

    True when the best error of the last ``window`` iterations failed to
    improve on the best error before the window by at least ``improvement``
    (relative).  Geometric convergence — even a slow 1 %/iteration — keeps
    clearing the bar; only genuine oscillation around a misfit floor trips
    it.
    """
    if window <= 0 or len(errors) <= window:
        return False
    recent = min(errors[-window:])
    before = min(errors[:-window])
    return recent > (1.0 - improvement) * before


def fitted_marginal(relation: Relation, weights: np.ndarray, marginal: Marginal) -> Marginal:
    """The marginal the weighted sample actually realises (for diagnostics)."""
    return Marginal.from_data(relation, list(marginal.attributes), weights=weights)
