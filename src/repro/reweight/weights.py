"""Weight-vector utilities shared by the reweighting paths."""

from __future__ import annotations

import numpy as np

from repro.errors import ReweightError


def uniform_weights(n: int, total: float) -> np.ndarray:
    """``n`` equal weights summing to ``total`` — the Unif baseline.

    This is "uniformly reweighting" a sample to a population size: the
    standard AQP estimator when nothing is known about the sampling bias
    (the paper's ``Unif`` comparison method).
    """
    if n <= 0:
        raise ReweightError(f"need at least one tuple to weight, got n={n}")
    return np.full(n, total / n, dtype=np.float64)


def validate_weights(weights: np.ndarray) -> np.ndarray:
    """Assert weights are finite and non-negative; returns the array."""
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(~np.isfinite(weights)):
        raise ReweightError("weights must be finite")
    if np.any(weights < 0):
        raise ReweightError("weights must be non-negative")
    return weights
