"""The exact order kernel of the quantile-matching surrogates.

``QuantileMatchingLoss`` and ``SlicedMarginalLoss`` sort a generated
batch, match order statistics against target quantiles, and scatter the
gradient back through the sort.  The order they need is the *stable* one
(equal values keep their batch order), which is what makes the gradient a
function of the batch and not of the sort implementation.

A column without equal values has exactly one sorting permutation, so any
correct sort returns the stable order; numpy's default ``argsort`` is the
vectorised one and about four times faster than ``kind="stable"`` on a
``(500, 100)`` block.  :func:`sort_columns` therefore sorts with the
default kind, checks that every column came out strictly increasing, and
re-sorts with ``kind="stable"`` only the columns that did not (a tie, a
``-0.0``/``0.0`` pair or a NaN all fail ``a < b``).  The result is the
stable order by construction, not by tolerance.
"""

from __future__ import annotations

import numpy as np


def sort_columns(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``z`` (``(n,)`` or ``(n, p)``) along axis 0, stably.

    Returns ``(z_sorted, flat)``, both shaped like ``z``: ``flat`` indexes
    ``z.reshape(-1)`` such that ``z_sorted == z.reshape(-1)[flat]``, and
    within each column it lists the rows in stable sorted order.  One
    flat gather (and, in :func:`scatter_columns`, one flat scatter)
    replaces ``take_along_axis``/``put_along_axis``.
    """
    columns = z.reshape(z.shape[0], -1)
    width = columns.shape[1]
    offsets = np.arange(width)
    flat = np.argsort(columns, axis=0)
    flat *= width
    flat += offsets
    z_sorted = columns.reshape(-1)[flat]
    increasing = z_sorted[:-1] < z_sorted[1:]
    if not increasing.all():
        tied = np.flatnonzero(~increasing.all(axis=0))
        order = np.argsort(columns[:, tied], axis=0, kind="stable")
        flat[:, tied] = order * width + offsets[tied]
        z_sorted[:, tied] = columns.reshape(-1)[flat[:, tied]]
    return z_sorted.reshape(z.shape), flat.reshape(z.shape)


def scatter_columns(values_sorted: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Undo :func:`sort_columns`: ``out.reshape(-1)[flat] = values_sorted``."""
    out = np.empty(values_sorted.shape)
    out.reshape(-1)[flat] = values_sorted
    return out
