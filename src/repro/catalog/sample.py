"""Sample relations: concrete tuples plus per-tuple weight metadata."""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import CatalogError, SchemaError
from repro.mechanisms.base import SamplingMechanism
from repro.relational.expressions import Expr
from repro.relational.relation import Relation


class SampleRelation:
    """A sample of the global population (paper Sec. 3.1, relation kind 2).

    Holds the sampled tuples, a mutable per-tuple weight vector
    (initialised to one, per Sec. 3.2), the population the sample was drawn
    from, the predicate that restricted it (``WHERE email = 'Yahoo'``), and
    — when declared — the sampling mechanism.

    Every sample carries a process-unique ``uid`` and a monotonically
    increasing ``version`` that bumps on every data/weight mutation.  The
    pair is the engine's cache-invalidation contract: anything derived from
    this sample (reweights, fitted generators) is cached under the uid and
    stamped with the version, so mutating one sample never evicts artifacts
    of another, and a dropped-and-recreated sample (fresh uid) can never be
    served a predecessor's artifacts.

    ``rows_stable_since`` is the version at which the stored tuples last
    changed other than by growing at the end: :meth:`append` and the
    weight mutators leave it alone, :meth:`replace_data` moves it up.  An
    artifact computed per row at version ``v`` (the engine's retained
    cell assignments) still describes rows ``[0, its length)`` exactly
    when ``v >= rows_stable_since``.

    Mutators (:meth:`replace_data`, :meth:`set_weights`, …) run only under
    the engine's write lock; readers under the read lock therefore always
    observe ``relation``, ``_weights`` and ``version`` consistently — the
    exclusion is what makes the multi-step swap (validate, assign tuples,
    assign weights, bump version) appear atomic to every query.
    """

    _uid_counter = itertools.count()

    def __init__(
        self,
        name: str,
        relation: Relation,
        population: str,
        defining_predicate: Expr | None = None,
        mechanism: SamplingMechanism | None = None,
        initial_weights: np.ndarray | None = None,
    ):
        self.name = name
        self.relation = relation
        self.population = population
        self.defining_predicate = defining_predicate
        self.mechanism = mechanism
        self.uid = next(SampleRelation._uid_counter)
        self.version = 0
        self.rows_stable_since = 0
        if initial_weights is None:
            weights = np.ones(relation.num_rows, dtype=np.float64)
        else:
            weights = np.asarray(initial_weights, dtype=np.float64).copy()
            self._validate_weights(weights, relation.num_rows)
        self._weights = weights

    @staticmethod
    def _validate_weights(weights: np.ndarray, num_rows: int) -> None:
        if weights.shape != (num_rows,):
            raise SchemaError(
                f"weights shape {weights.shape} does not match sample rows {num_rows}"
            )
        if np.any(~np.isfinite(weights)):
            raise CatalogError("sample weights must be finite")
        if np.any(weights < 0):
            raise CatalogError("sample weights must be non-negative")

    # ------------------------------------------------------------------ #
    # Weights (the per-sample metadata of Sec. 3.2)
    # ------------------------------------------------------------------ #

    @property
    def weights(self) -> np.ndarray:
        """A copy of the current weights (mutate via :meth:`set_weights`)."""
        return self._weights.copy()

    @property
    def total_weight(self) -> float:
        return float(np.sum(self._weights))

    @property
    def num_rows(self) -> int:
        return self.relation.num_rows

    def bump_version(self) -> None:
        """Mark the sample's data/weights as changed (invalidates caches)."""
        self.version += 1

    def replace_data(self, relation: Relation, weights: np.ndarray) -> None:
        """Swap in new tuples and weights atomically (validated first)."""
        weights = np.asarray(weights, dtype=np.float64).copy()
        self._validate_weights(weights, relation.num_rows)
        self.relation = relation
        self._weights = weights
        self.bump_version()
        self.rows_stable_since = self.version

    def append(self, rows: Relation, weights: np.ndarray) -> None:
        """Add tuples after the stored ones (validated first).

        The stored tuples keep their positions, so ``rows_stable_since``
        does not move.
        """
        weights = np.asarray(weights, dtype=np.float64)
        self._validate_weights(weights, rows.num_rows)
        self.relation = self.relation.concat(rows)
        self._weights = np.concatenate([self._weights, weights])
        self.bump_version()

    def set_weights(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64).copy()
        self._validate_weights(weights, self.relation.num_rows)
        self._weights = weights
        self.bump_version()

    def reset_weights(self) -> None:
        """Back to the all-ones initialisation."""
        self._weights = np.ones(self.relation.num_rows, dtype=np.float64)
        self.bump_version()

    def scale_weights_to_total(self, target_total: float) -> None:
        """Rescale so weights sum to ``target_total`` (population size)."""
        current = self.total_weight
        if current <= 0:
            raise CatalogError(f"sample {self.name!r} has zero total weight")
        self._weights = self._weights * (target_total / current)
        self.bump_version()

    def effective_sample_size(self) -> float:
        """Kish's effective sample size ``(Σw)² / Σw²``.

        A diagnostic for weight degeneracy: equals ``n`` for uniform
        weights and collapses towards 1 as a few tuples dominate.
        """
        w = self._weights
        denominator = float(np.sum(w * w))
        if denominator == 0.0:
            return 0.0
        return float(np.sum(w)) ** 2 / denominator

    def weighted_relation(self, weight_column: str = "weight") -> Relation:
        """The sample data with the weight vector attached as a column."""
        from repro.relational.dtypes import DType

        return self.relation.with_column(weight_column, DType.FLOAT, self._weights)

    def __repr__(self) -> str:
        mech = f", mechanism={self.mechanism.describe()}" if self.mechanism else ""
        return (
            f"SampleRelation({self.name}, rows={self.num_rows}, "
            f"population={self.population}{mech})"
        )
