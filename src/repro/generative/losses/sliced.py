"""Sliced Wasserstein loss for 2-D (and higher) marginals.

The paper (Sec. 5.2): *"by using the sliced Wasserstein distance [46, 15],
we can randomly project the marginals onto multiple one dimensional spaces
and compute the Wasserstein distance exactly for each projection"* —
the loss term ``(1/p) Σ_{{i,j}} Σ_{ω∈Ω} W(P_ijω, Q_ijω)``.

A marginal over an attribute pair lives in the *encoded* space of those
attributes (a one-hot categorical block contributes one dimension per
category — flights Table 1's "M-SWG Dim"), so projections are unit vectors
of that concatenated block dimensionality.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GenerativeModelError
from repro.generative.losses.order import scatter_columns, sort_columns
from repro.generative.losses.wasserstein import WeightedQuantileFunction


def random_unit_projections(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """``count`` random directions on the unit sphere in ``R^dim``."""
    if dim <= 0 or count <= 0:
        raise GenerativeModelError(f"need positive dim and count, got ({dim}, {count})")
    directions = rng.normal(size=(count, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    # A zero draw has probability 0 but guard against it anyway.
    norms[norms == 0.0] = 1.0
    return directions / norms


class SlicedMarginalLoss:
    """Average exact-1-D-W surrogate over random projections of one marginal.

    ``target_points`` are the marginal's cells embedded in the block's
    encoded coordinates, ``target_weights`` their masses.  Target
    quantiles per projection are precomputed once (the marginal and the
    projection set are fixed during training).
    """

    def __init__(
        self,
        target_points: np.ndarray,
        target_weights: np.ndarray,
        projections: np.ndarray,
        batch_size: int,
        power: int = 2,
    ):
        target_points = np.asarray(target_points, dtype=np.float64)
        projections = np.asarray(projections, dtype=np.float64)
        if target_points.ndim != 2:
            raise GenerativeModelError("target_points must be 2-D (cells x dims)")
        if projections.ndim != 2 or projections.shape[1] != target_points.shape[1]:
            raise GenerativeModelError(
                f"projections shape {projections.shape} does not match target "
                f"dimensionality {target_points.shape[1]}"
            )
        if power not in (1, 2):
            raise GenerativeModelError(f"power must be 1 or 2, got {power}")

        self.projections = projections
        self.batch_size = int(batch_size)
        self.power = power

        grid = (np.arange(self.batch_size) + 0.5) / self.batch_size
        projected = target_points @ projections.T  # (cells, p)
        quantiles = np.empty((self.batch_size, projections.shape[0]))
        for k in range(projections.shape[0]):
            quantiles[:, k] = WeightedQuantileFunction(projected[:, k], target_weights)(grid)
        self.target_quantiles = quantiles  # (n, p)

    @property
    def num_projections(self) -> int:
        return self.projections.shape[0]

    def loss_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss and gradient for a generated block ``x`` of shape (n, dims)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.batch_size, self.projections.shape[1]):
            raise GenerativeModelError(
                f"expected block of shape ({self.batch_size}, "
                f"{self.projections.shape[1]}), got {x.shape}"
            )
        z = x @ self.projections.T  # (n, p)
        z_sorted, flat = sort_columns(z)
        diff = z_sorted - self.target_quantiles

        n, p = diff.shape
        if self.power == 2:
            loss = float(np.mean(diff * diff))  # mean over n and p
            grad_sorted = 2.0 * diff / (n * p)
        else:
            loss = float(np.mean(np.abs(diff)))
            grad_sorted = np.sign(diff) / (n * p)

        return loss, scatter_columns(grad_sorted, flat) @ self.projections
