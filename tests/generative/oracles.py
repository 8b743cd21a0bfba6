"""Reference implementations the M-SWG training kernels replaced.

These are the bodies ``SlicedMarginalLoss.loss_and_grad``,
``QuantileMatchingLoss.loss_and_grad`` and ``CoveragePenalty`` had before
the order kernel (:mod:`repro.generative.losses.order`) and the blocked
GEMM nearest-sample kernel: numpy's stable ``argsort`` with
``take_along_axis``/``put_along_axis``, and ``cKDTree.query`` over the
sample as given.  The tests compare the production kernels against them
and patch them into a whole fit (``patched_in``).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.generative.losses import (
    CoveragePenalty,
    QuantileMatchingLoss,
    SlicedMarginalLoss,
)


def stable_order(z: np.ndarray) -> np.ndarray:
    """Row order of each column of ``z`` under a stable sort."""
    return np.argsort(z, axis=0, kind="stable")


def sliced_loss_and_grad(self: SlicedMarginalLoss, x: np.ndarray):
    x = np.asarray(x, dtype=np.float64)
    z = x @ self.projections.T  # (n, p)
    order = stable_order(z)
    z_sorted = np.take_along_axis(z, order, axis=0)
    diff = z_sorted - self.target_quantiles

    n, p = diff.shape
    if self.power == 2:
        loss = float(np.mean(diff * diff))
        grad_sorted = 2.0 * diff / (n * p)
    else:
        loss = float(np.mean(np.abs(diff)))
        grad_sorted = np.sign(diff) / (n * p)

    grad_z = np.empty_like(grad_sorted)
    np.put_along_axis(grad_z, order, grad_sorted, axis=0)
    return loss, grad_z @ self.projections


def quantile_loss_and_grad(self: QuantileMatchingLoss, x: np.ndarray):
    x = np.asarray(x, dtype=np.float64)
    order = stable_order(x)
    diff = x[order] - self.target_quantiles
    if self.power == 2:
        loss = float(np.mean(diff * diff))
        grad_sorted = 2.0 * diff / self.batch_size
    else:
        loss = float(np.mean(np.abs(diff)))
        grad_sorted = np.sign(diff) / self.batch_size
    grad = np.empty_like(x)
    grad[order] = grad_sorted
    return loss, grad


def kdtree_nearest(sample_points: np.ndarray, x: np.ndarray):
    """``(distances, indices)`` of each row's nearest sample row."""
    return cKDTree(sample_points).query(x)


def coverage_loss_and_grad(self: CoveragePenalty, x: np.ndarray):
    """The old body: loss from the tree's ``sqrt``-ed distance, gradient
    from the difference.  The tree is built on first use and kept."""
    x = np.asarray(x, dtype=np.float64)
    if self.lam == 0.0:
        return 0.0, np.zeros_like(x)
    tree = getattr(self, "_oracle_tree", None)
    if tree is None:
        tree = self._oracle_tree = cKDTree(self.sample_points)
    distances, indices = tree.query(x)
    nearest = self.sample_points[indices]
    diff = x - nearest
    n = x.shape[0]
    if self.squared:
        loss = self.lam * float(np.mean(distances**2))
        grad = self.lam * 2.0 * diff / n
    else:
        loss = self.lam * float(np.mean(distances))
        safe = np.maximum(distances, 1e-12)[:, None]
        grad = self.lam * diff / safe / n
    return loss, grad


def patched_in(monkeypatch) -> None:
    """Route every training-step kernel through the replaced code."""
    monkeypatch.setattr(SlicedMarginalLoss, "loss_and_grad", sliced_loss_and_grad)
    monkeypatch.setattr(QuantileMatchingLoss, "loss_and_grad", quantile_loss_and_grad)
    monkeypatch.setattr(CoveragePenalty, "loss_and_grad", coverage_loss_and_grad)
