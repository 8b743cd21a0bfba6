"""Exact 1-D Wasserstein distance and its differentiable surrogate.

The paper's second WGAN modification (Sec. 5.2): *"compute the Wasserstein
distance exactly [49] instead of using the discriminator approach ...
Not only is computing W efficient for 1-dimensional data, but it makes the
discriminator exact and avoids the need to train discriminator networks."*

For 1-D distributions ``W₁(P, Q) = ∫₀¹ |F_P⁻¹(u) − F_Q⁻¹(u)| du``.  The
training surrogate matches the sorted generated batch against target
quantiles sampled at ``u_j = (j − ½)/n`` — the empirical quantile grid of
the batch itself — giving the standard sliced-Wasserstein-generator
gradient (sign or difference of matched pairs, scattered back through the
sort order).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GenerativeModelError
from repro.generative.losses.order import scatter_columns, sort_columns


class WeightedQuantileFunction:
    """Inverse CDF of a weighted discrete 1-D distribution."""

    def __init__(self, values: np.ndarray, weights: np.ndarray | None = None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise GenerativeModelError("quantile function needs a non-empty 1-D value array")
        if weights is None:
            weights = np.ones_like(values)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != values.shape:
                raise GenerativeModelError("values and weights must have equal shape")
            if np.any(weights < 0):
                raise GenerativeModelError("weights must be non-negative")
        total = float(weights.sum())
        if total <= 0:
            raise GenerativeModelError("total weight must be positive")
        order = np.argsort(values, kind="stable")
        self._values = values[order]
        self._cumulative = np.cumsum(weights[order]) / total

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Quantiles at probabilities ``u`` (step-function inverse CDF)."""
        u = np.asarray(u, dtype=np.float64)
        indices = np.searchsorted(self._cumulative, u, side="left")
        indices = np.clip(indices, 0, self._values.shape[0] - 1)
        return self._values[indices]


def wasserstein_1d(
    u_values: np.ndarray,
    v_values: np.ndarray,
    u_weights: np.ndarray | None = None,
    v_weights: np.ndarray | None = None,
) -> float:
    """Exact W₁ between two weighted 1-D empirical distributions.

    Computed as ``∫ |F_U(t) − F_V(t)| dt`` over the merged support
    (Werman et al. [49]); agrees with ``scipy.stats.wasserstein_distance``.
    """
    u_values = np.asarray(u_values, dtype=np.float64)
    v_values = np.asarray(v_values, dtype=np.float64)
    if u_values.size == 0 or v_values.size == 0:
        raise GenerativeModelError("wasserstein_1d needs non-empty distributions")

    u_weights = _normalized_weights(u_values, u_weights)
    v_weights = _normalized_weights(v_values, v_weights)

    all_values = np.concatenate([u_values, v_values])
    order = np.argsort(all_values, kind="stable")
    all_values = all_values[order]
    deltas = np.diff(all_values)

    u_cdf = _cdf_at(all_values[:-1], u_values, u_weights)
    v_cdf = _cdf_at(all_values[:-1], v_values, v_weights)
    return float(np.sum(np.abs(u_cdf - v_cdf) * deltas))


def _normalized_weights(values: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    if weights is None:
        return np.full(values.shape[0], 1.0 / values.shape[0])
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != values.shape:
        raise GenerativeModelError("values and weights must have equal shape")
    total = float(weights.sum())
    if total <= 0:
        raise GenerativeModelError("total weight must be positive")
    return weights / total


def _cdf_at(points: np.ndarray, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    cumulative = np.cumsum(weights[order])
    indices = np.searchsorted(sorted_values, points, side="right")
    cdf = np.concatenate([[0.0], cumulative])
    return cdf[indices]


class QuantileMatchingLoss:
    """Differentiable W surrogate between a generated batch and a fixed target.

    Precomputes the target quantiles at the batch's empirical grid
    ``u_j = (j − ½)/n``; ``loss_and_grad`` sorts the batch, matches
    order statistics against those quantiles, and scatters the gradient
    back through the sort.

    ``power=2`` (default) gives the squared surrogate (smooth gradients,
    standard in SWG implementations); ``power=1`` gives the exact-W₁-style
    sign gradient.
    """

    def __init__(
        self,
        target_values: np.ndarray,
        target_weights: np.ndarray | None,
        batch_size: int,
        power: int = 2,
    ):
        if power not in (1, 2):
            raise GenerativeModelError(f"power must be 1 or 2, got {power}")
        if batch_size <= 0:
            raise GenerativeModelError(f"batch_size must be positive, got {batch_size}")
        quantile_fn = WeightedQuantileFunction(target_values, target_weights)
        grid = (np.arange(batch_size) + 0.5) / batch_size
        self.target_quantiles = quantile_fn(grid)
        self.batch_size = batch_size
        self.power = power

    def loss_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.batch_size,):
            raise GenerativeModelError(
                f"expected batch of shape ({self.batch_size},), got {x.shape}"
            )
        x_sorted, flat = sort_columns(x)
        diff = x_sorted - self.target_quantiles
        if self.power == 2:
            loss = float(np.mean(diff * diff))
            grad_sorted = 2.0 * diff / self.batch_size
        else:
            loss = float(np.mean(np.abs(diff)))
            grad_sorted = np.sign(diff) / self.batch_size
        return loss, scatter_columns(grad_sorted, flat)
