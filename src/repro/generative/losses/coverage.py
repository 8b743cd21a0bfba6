"""The sample-coverage penalty ``λ E_{x~G} min_{y∈S} ‖x − y‖₂``.

This is the paper's "L2 Distance to Sample" branch (Fig. 4): it anchors
generated points to the manifold the sample occupies (the Manifold
Hypothesis + Sample Coverage assumptions of Sec. 5.2), while the marginal
terms pull the distribution towards the population.

``squared=True`` (default) optimises the squared distance, which has a
smooth gradient everywhere; ``squared=False`` follows the paper's norm
literally (gradient clipped near zero distance).

The nearest sample point of every generated row is found exactly, by one
of two indexes chosen from the sample's shape alone:

- **kd-tree** (``scipy.spatial.cKDTree`` over the sample as given) when
  the sample has more distinct rows than ``2**width`` — the textbook
  condition for a kd-tree to prune.  Low-dimensional numeric samples such
  as the paper's 2-D spiral land here.
- **blocked GEMM** otherwise.  In a wide one-hot space a kd-tree visits
  every leaf, so it is a brute force with tree overhead.  The sample is
  deduplicated once; ``‖x − y‖² − ‖x‖² = [x, 1] · [−2y, ‖y‖²]`` scores
  every distinct row in one matrix product per block of rows (the block
  bounds the scratch for any sample size) and the smallest score and the
  runner-up are kept per query.  The product rounds differently from
  ``Σ(x − y)²``, so a query whose runner-up is within the rounding slack
  of the best is re-checked: its candidates (every row within the slack,
  a superset of the true nearest — the slack is twice the sum of the two
  evaluations' error bounds) are compared on directly computed
  ``Σ(x − y)²``, lowest row first on an exact tie.  The index returned is
  therefore ``argmin_y Σ(x − y)²`` as computed directly, whatever the
  product rounded to.

Loss *and* gradient are both computed from the one difference
``x − nearest``, so the value does not depend on how the index was found.
Earlier versions squared the kd-tree's ``sqrt``-ed distance for the loss
while the gradient used the difference; the loss trace may differ from
theirs in the last digit.  With ``squared=True`` the gradient — and so
the fitted parameters — is the same to the bit; with ``squared=False``
the gradient's divisor is that ``sqrt`` too, so it shares the last-digit
caveat.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import GenerativeModelError

#: Largest ``queries x block`` score matrix the GEMM path allocates, in
#: elements (8 MB of float64); the sample is walked in blocks of
#: ``_SCORE_ELEMENTS // queries`` rows.
_SCORE_ELEMENTS = 1 << 20


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", rows, rows)


class CoveragePenalty:
    """``nearest`` names the index built: ``"gemm"``, ``"kdtree"``, or
    ``"none"`` when ``lam == 0`` (the term is constant zero and no index
    is built); ``unique_sample_rows`` is the distinct-row count the choice
    was made on (``None`` without an index)."""

    def __init__(self, sample_points: np.ndarray, lam: float, squared: bool = True):
        sample_points = np.asarray(sample_points, dtype=np.float64)
        if sample_points.ndim != 2 or sample_points.shape[0] == 0:
            raise GenerativeModelError("coverage penalty needs a non-empty 2-D sample matrix")
        if lam < 0:
            raise GenerativeModelError(f"lambda must be non-negative, got {lam}")
        self.sample_points = sample_points
        self.lam = float(lam)
        self.squared = squared
        self.nearest = "none"
        self.unique_sample_rows: int | None = None
        if self.lam == 0.0:
            return
        unique = np.unique(sample_points, axis=0)
        width = sample_points.shape[1]
        self.unique_sample_rows = unique.shape[0]
        if unique.shape[0] > 2**width:
            self.nearest = "kdtree"
            self._tree = cKDTree(sample_points)
        else:
            self.nearest = "gemm"
            self._unique = unique
            norms = _squared_norms(unique)
            # [-2y, |y|^2], transposed so each block is one GEMM operand.
            self._scorer = np.ascontiguousarray(
                np.concatenate([-2.0 * unique, norms[:, None]], axis=1).T
            )
            self._slack_scale = 16.0 * (width + 2) * np.finfo(np.float64).eps
            self._max_norm = float(norms.max())

    def nearest_points(self, x: np.ndarray) -> np.ndarray:
        """The sample row nearest to each row of ``x``."""
        if self.nearest == "kdtree":
            return self.sample_points[self._tree.query(x)[1]]
        return self._unique[self._gemm_nearest(x)]

    def _gemm_nearest(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        queries = np.concatenate([x, np.ones((n, 1))], axis=1)
        block = max(1, _SCORE_ELEMENTS // n)
        row_ids = np.arange(n)

        def two_smallest(start: int):
            # The (n, block) scores live only inside this call, so one
            # block is allocated at a time.
            scores = queries @ self._scorer[:, start : start + block]
            local = scores.argmin(axis=1)
            smallest = scores[row_ids, local]
            scores[row_ids, local] = np.inf
            return local + start, smallest, scores.min(axis=1)

        index, best, second = two_smallest(0)
        for start in range(block, self._unique.shape[0], block):
            block_index, block_best, block_second = two_smallest(start)
            # Two smallest of {best, second, block_best, block_second}.
            wins = block_best < best
            second = np.minimum(
                np.where(wins, best, block_best), np.minimum(second, block_second)
            )
            index = np.where(wins, block_index, index)
            best = np.where(wins, block_best, best)

        slack = self._slack_scale * (_squared_norms(x) + self._max_norm)
        for i in np.flatnonzero(~(second > best + slack)):
            scores = queries[i] @ self._scorer
            candidates = np.flatnonzero(scores <= scores.min() + slack[i])
            index[i] = candidates[_squared_norms(x[i] - self._unique[candidates]).argmin()]
        return index

    def loss_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        if self.lam == 0.0:
            return 0.0, np.zeros_like(x)
        diff = x - self.nearest_points(x)
        squared_distances = _squared_norms(diff)
        n = x.shape[0]
        if self.squared:
            loss = self.lam * float(np.mean(squared_distances))
            grad = self.lam * 2.0 * diff / n
        else:
            distances = np.sqrt(squared_distances)
            loss = self.lam * float(np.mean(distances))
            safe = np.maximum(distances, 1e-12)[:, None]
            grad = self.lam * diff / safe / n
        return loss, grad
