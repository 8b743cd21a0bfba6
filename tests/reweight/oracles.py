"""Reference implementation the vectorised cell matcher replaced.

This is the body ``repro.reweight.contingency.assign_cells`` had before
the numpy matcher: it matches every *distinct combo* of the relation
against the marginal's keys in Python (``divmod``, ``_native``, one dict
probe each) and always starts from row 0.  The tests compare the
production matcher — from scratch and extended over appended rows —
against it: ``cell_keys`` equal with equal element types, ``row_cell``
and ``target_mass`` ``tobytes()``-equal.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.metadata import Marginal
from repro.errors import ReweightError
from repro.relational.relation import Relation
from repro.reweight.contingency import CellAssignment


def assign_cells(relation: Relation, marginal: Marginal) -> CellAssignment:
    for attribute in marginal.attributes:
        if attribute not in relation.schema:
            raise ReweightError(
                f"marginal attribute {attribute!r} missing from sample columns "
                f"{list(relation.column_names)}"
            )

    key_index: dict[tuple, int] = {}
    cell_keys: list[tuple] = []
    masses: list[float] = []
    for key, mass in marginal.cells():
        key_index[key] = len(cell_keys)
        cell_keys.append(key)
        masses.append(mass)

    n = relation.num_rows
    if n == 0:
        return CellAssignment(
            cell_keys=tuple(cell_keys),
            row_cell=np.empty(0, dtype=np.int64),
            target_mass=np.asarray(masses, dtype=np.float64),
        )

    axis_uniques: list[np.ndarray] = []
    combined = np.zeros(n, dtype=np.int64)
    for attribute in marginal.attributes:
        uniques, codes = relation.dictionary(attribute)
        combined = combined * len(uniques) + codes
        axis_uniques.append(uniques)

    distinct, first_rows, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    cell_of_combo = np.empty(distinct.shape[0], dtype=np.int64)
    # Walk the distinct combos in first-appearance order so sample-only
    # cells are numbered exactly as the row-order loop numbered them.
    for position in np.argsort(first_rows, kind="stable"):
        combo = int(distinct[position])
        if len(axis_uniques) == 1:
            key = (_native(axis_uniques[0][combo]),)
        else:
            major, minor = divmod(combo, len(axis_uniques[1]))
            key = (
                _native(axis_uniques[0][major]),
                _native(axis_uniques[1][minor]),
            )
        index = key_index.get(key)
        if index is None:
            index = len(cell_keys)
            key_index[key] = index
            cell_keys.append(key)
            masses.append(0.0)
        cell_of_combo[position] = index

    return CellAssignment(
        cell_keys=tuple(cell_keys),
        row_cell=cell_of_combo[inverse.astype(np.int64, copy=False)],
        target_mass=np.asarray(masses, dtype=np.float64),
    )


def _native(value):
    if isinstance(value, np.generic):
        return value.item()
    return value
