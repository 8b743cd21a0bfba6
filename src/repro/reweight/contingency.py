"""Mapping sample tuples onto marginal cells.

IPF needs to know, for every sample row and every marginal, which cell the
row falls in.  The flights data uses exact (whole-number / categorical)
cell values, so the default mapping is exact-value; an optional
equal-width :class:`Binner` supports continuous attributes whose marginals
are histograms over intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.catalog.metadata import Marginal
from repro.errors import ReweightError
from repro.relational.relation import Relation


@dataclass(frozen=True)
class CellAssignment:
    """Rows → marginal cells, for one marginal over one sample relation.

    ``cell_keys`` lists the distinct cells that occur (marginal cells plus
    any sample-only cells); ``row_cell`` maps each sample row to an index
    into ``cell_keys``; ``target_mass[i]`` is the marginal's mass for cell
    ``i`` (0 for cells the marginal does not list).
    """

    cell_keys: tuple[tuple, ...]
    row_cell: np.ndarray
    target_mass: np.ndarray

    @property
    def num_cells(self) -> int:
        return len(self.cell_keys)

    @cached_property
    def occupied(self) -> np.ndarray:
        """Which cells contain at least one sample row (computed once).

        The IPF loop consults this every iteration; recomputing it from
        ``row_cell`` per call used to dominate the raking cost.
        """
        occupied = np.zeros(self.num_cells, dtype=bool)
        occupied[self.row_cell] = True
        return occupied

    def achieved_mass(self, weights: np.ndarray) -> np.ndarray:
        """Current weighted mass per cell."""
        return np.bincount(self.row_cell, weights=weights, minlength=self.num_cells)

    def unreachable_mass(self) -> float:
        """Marginal mass in cells with no sample rows at all.

        This is the mass SEMI-OPEN evaluation can never recover (it would
        need new tuples — the motivation for OPEN queries).
        """
        return float(np.sum(self.target_mass[~self.occupied]))


def assign_cells(
    relation: Relation, marginal: Marginal, extend: CellAssignment | None = None
) -> CellAssignment:
    """Assign every row of ``relation`` to a cell of ``marginal``.

    Marginal cells keep their declared order.  Sample values that do not
    appear in the marginal become extra cells with target mass 0 (the
    marginal asserts those values have zero population mass, so IPF drives
    their weights to zero), numbered after the marginal's own in order of
    first appearance by row.

    ``extend`` is the assignment of a row prefix of ``relation`` against
    the same marginal: only the rows after it are assigned, and its cells
    keep their numbers.  Because sample-only cells are numbered by first
    appearance, the result equals assigning all rows at once.

    Array work is per row (one combined dictionary code each, one
    ``np.unique``) and per distinct combo (one ``np.searchsorted``, in
    :meth:`CellIndex.cells <repro.catalog.metadata.CellIndex.cells>`).  Python runs only over each axis'
    distinct values, to look them up the way the marginal's keys compare,
    and over the sample-only combos, to build their keys.
    """
    for attribute in marginal.attributes:
        if attribute not in relation.schema:
            raise ReweightError(
                f"marginal attribute {attribute!r} missing from sample columns "
                f"{list(relation.column_names)}"
            )
    index = marginal.cell_index
    if extend is None:
        extend = CellAssignment(
            cell_keys=index.keys,
            row_cell=np.empty(0, dtype=np.int64),
            target_mass=index.masses,
        )
    assigned = extend.row_cell.shape[0]
    if assigned > relation.num_rows:
        raise ReweightError(
            f"cannot extend an assignment of {assigned} rows over a relation "
            f"of {relation.num_rows}"
        )
    if assigned == relation.num_rows:
        return extend
    rows = relation.slice_rows(assigned, relation.num_rows)

    # One combined dictionary code per row, then per distinct combo its
    # code on each axis and, through the marginal's index, its cell.
    axis_values: list[list] = []
    combined = np.zeros(rows.num_rows, dtype=np.int64)
    for attribute in marginal.attributes:
        uniques, codes = rows.dictionary(attribute)
        combined = combined * len(uniques) + codes
        axis_values.append(uniques.tolist())
    distinct, first_rows, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    axis_codes = [distinct]
    if len(axis_values) == 2:
        axis_codes = list(np.divmod(distinct, len(axis_values[1])))
    cell_of_combo = index.cells(
        [
            np.fromiter(
                (positions.get(value, -1) for value in values), np.int64, len(values)
            )[codes]
            for positions, values, codes in zip(
                index.axis_positions, axis_values, axis_codes
            )
        ]
    )

    # Sample-only combos, in order of first appearance: an earlier row's
    # cell when the prefix already met the key, the next free number else.
    known = {
        _matchable(key): cell
        for cell, key in enumerate(extend.cell_keys[len(index.keys):], len(index.keys))
    }
    new_keys: list[tuple] = []
    unlisted = np.flatnonzero(cell_of_combo < 0)
    for combo in unlisted[np.argsort(first_rows[unlisted], kind="stable")].tolist():
        key = tuple(
            values[codes[combo]] for values, codes in zip(axis_values, axis_codes)
        )
        next_cell = extend.num_cells + len(new_keys)
        cell = known.setdefault(_matchable(key), next_cell)
        if cell == next_cell:
            new_keys.append(key)
        cell_of_combo[combo] = cell

    return CellAssignment(
        cell_keys=extend.cell_keys + tuple(new_keys),
        row_cell=np.concatenate([extend.row_cell, cell_of_combo[inverse]]),
        target_mass=np.concatenate([extend.target_mass, np.zeros(len(new_keys))]),
    )


def _matchable(key: tuple) -> tuple:
    """``key`` with every NaN replaced by one stand-in that equals itself.

    The column dictionary keeps all of a column's NaNs in one entry, so an
    appended NaN row belongs to the cell an earlier NaN row opened — which
    a dict probe with a fresh ``nan`` object would never find.
    """
    return tuple(_NAN if value != value else value for value in key)


_NAN = object()


class Binner:
    """Equal-width binning of a continuous attribute.

    Produces integer bin labels so binned attributes can be used as exact
    marginal cell values: bin ``b`` covers ``[low + b·width, low + (b+1)·width)``
    with the last bin closed on the right.
    """

    def __init__(self, low: float, high: float, bins: int):
        if not bins > 0:
            raise ReweightError(f"need a positive number of bins, got {bins}")
        if not high > low:
            raise ReweightError(f"need high > low, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)
        self.bins = int(bins)

    @classmethod
    def fit(cls, values: np.ndarray, bins: int) -> "Binner":
        values = np.asarray(values, dtype=np.float64)
        low, high = float(np.min(values)), float(np.max(values))
        if high == low:
            high = low + 1.0
        return cls(low, high, bins)

    def assign(self, values: np.ndarray) -> np.ndarray:
        """Bin label per value; out-of-range values clamp to the edge bins."""
        values = np.asarray(values, dtype=np.float64)
        width = (self.high - self.low) / self.bins
        labels = np.floor((values - self.low) / width).astype(np.int64)
        return np.clip(labels, 0, self.bins - 1)

    def midpoints(self) -> np.ndarray:
        width = (self.high - self.low) / self.bins
        return self.low + width * (np.arange(self.bins) + 0.5)

