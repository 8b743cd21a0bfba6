"""Marginal metadata: ground-truth 1-D / 2-D histograms over populations.

The paper (Sec. 3.2): *"we focus on using aggregate values for one or two
attributes; i.e., 1- or 2-dimensional histograms. ... When Mosaic answers
queries over populations, it ensures these marginals are satisfied."*

A :class:`Marginal` stores, per cell (attribute value or value pair), a
non-negative mass.  Masses are the reported population counts, so the total
mass of any marginal over the same population should agree — that is how
the engine learns the population size.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import CatalogError
from repro.relational.groupby import group_rows
from repro.relational.relation import Relation


class CellIndex:
    """A marginal's cells laid out for array matching (see ``cell_index``).

    ``keys`` and ``masses`` are the cells in declared order.
    ``axis_positions[a]`` maps each value that occurs on axis ``a`` to its
    position there — a dict, so a lookup compares the way the cell keys
    themselves do (``5`` finds ``5.0``, a string never finds a number, NaN
    finds nothing).  A cell's *combined id* is its axis positions read as
    digits, radix ``len(axis_positions[a])``; distinct keys get distinct
    ids, and :meth:`cells` finds a cell from its positions by one
    ``np.searchsorted`` over the sorted ids.
    """

    def __init__(self, cells: Mapping[tuple, float], ndim: int):
        self.keys: tuple[tuple, ...] = tuple(cells)
        self.masses = np.fromiter(cells.values(), np.float64, len(cells))
        self.axis_positions: tuple[dict, ...] = tuple({} for _ in range(ndim))
        digits = np.empty((ndim, len(cells)), dtype=np.int64)
        for cell, key in enumerate(self.keys):
            for axis, value in enumerate(key):
                positions = self.axis_positions[axis]
                digits[axis, cell] = positions.setdefault(value, len(positions))
        ids = self._combined_ids(digits)
        self._cell_of_sorted = np.argsort(ids, kind="stable")
        self._sorted_ids = ids[self._cell_of_sorted]

    def _combined_ids(self, positions: Sequence[np.ndarray]) -> np.ndarray:
        ids = np.zeros(len(positions[0]), dtype=np.int64)
        for on_axis, position in zip(self.axis_positions, positions):
            ids = ids * len(on_axis) + position
        return ids

    def cells(self, positions: Sequence[np.ndarray]) -> np.ndarray:
        """The declared cell of each combo, ``-1`` where there is none.

        ``positions[a][i]`` is combo ``i``'s position on axis ``a`` as
        ``axis_positions[a]`` gives it, ``-1`` for a value not found there.
        """
        ids = self._combined_ids(positions)
        slot = np.searchsorted(self._sorted_ids, ids)
        slot[slot == self._sorted_ids.shape[0]] = 0
        listed = self._sorted_ids[slot] == ids
        for position in positions:
            listed &= position >= 0
        return np.where(listed, self._cell_of_sorted[slot], -1)


class Marginal:
    """A weighted histogram over one or two population attributes.

    ``attributes`` is a 1- or 2-tuple of column names; ``cells`` maps each
    value (or value pair) to its reported population count.  Immutable
    once built, which is what lets ``cell_index`` be memoised.
    """

    def __init__(self, attributes: Sequence[str], cells: Mapping[tuple, float], name: str = ""):
        attributes = tuple(attributes)
        if len(attributes) not in (1, 2):
            raise CatalogError(
                f"marginals must cover 1 or 2 attributes, got {len(attributes)}"
            )
        if len(set(attributes)) != len(attributes):
            raise CatalogError(f"marginal attributes must be distinct: {attributes}")
        clean: dict[tuple, float] = {}
        for key, mass in cells.items():
            key = key if isinstance(key, tuple) else (key,)
            if len(key) != len(attributes):
                raise CatalogError(
                    f"cell key {key} does not match attributes {attributes}"
                )
            mass = float(mass)
            if mass < 0:
                raise CatalogError(f"negative marginal mass for cell {key}: {mass}")
            if key in clean:
                raise CatalogError(f"duplicate marginal cell: {key}")
            clean[key] = mass
        if not clean:
            raise CatalogError("marginal has no cells")
        self.attributes = attributes
        self.name = name
        self._cells = clean

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_relation(
        cls,
        attributes: Sequence[str],
        relation: Relation,
        count_column: str,
        name: str = "",
    ) -> "Marginal":
        """Build from a relation of ``(attribute values..., count)`` rows.

        This is what ``CREATE METADATA ... AS (SELECT a, cnt FROM aux)``
        produces.  Duplicate attribute-value rows are summed.
        """
        cells: dict[tuple, float] = {}
        value_columns = [relation.column(a) for a in attributes]
        counts = relation.column(count_column)
        for i in range(relation.num_rows):
            key = tuple(_native(col[i]) for col in value_columns)
            cells[key] = cells.get(key, 0.0) + float(counts[i])
        return cls(attributes, cells, name=name)

    @classmethod
    def from_data(
        cls,
        relation: Relation,
        attributes: Sequence[str],
        weights: np.ndarray | None = None,
        name: str = "",
    ) -> "Marginal":
        """Compute the marginal of an actual dataset (optionally weighted).

        Used to manufacture "ground truth" marginals from a synthetic
        population, and to measure how well a reweighted/generated sample
        fits a target marginal.
        """
        cells: dict[tuple, float] = {}
        for key, indices in group_rows(relation, list(attributes)):
            if weights is None:
                cells[key] = float(len(indices))
            else:
                cells[key] = float(np.sum(np.asarray(weights)[indices]))
        return cls(attributes, cells, name=name)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def ndim(self) -> int:
        return len(self.attributes)

    @property
    def total_mass(self) -> float:
        return float(sum(self._cells.values()))

    @property
    def num_cells(self) -> int:
        return len(self._cells)

    def mass(self, key: tuple) -> float:
        key = key if isinstance(key, tuple) else (key,)
        return self._cells.get(key, 0.0)

    def cells(self) -> Iterator[tuple[tuple, float]]:
        return iter(self._cells.items())

    def keys(self) -> Iterable[tuple]:
        return self._cells.keys()

    @cached_property
    def cell_index(self) -> CellIndex:
        """The cells in declared order plus their combined-id lookup.

        Built on first use and kept (a few arrays and dicts per marginal);
        ``__getstate__`` drops it, so a marginal pickles the same bytes
        into ``catalog.pkl`` and the WAL whether or not a rake has used it.
        """
        return CellIndex(self._cells, len(self.attributes))

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("cell_index", None)
        return state

    def normalized(self) -> dict[tuple, float]:
        """Cells as probabilities (mass / total mass)."""
        total = self.total_mass
        if total <= 0:
            raise CatalogError(f"marginal {self.name or self.attributes} has zero mass")
        return {key: mass / total for key, mass in self._cells.items()}

    def project(self, attribute: str) -> "Marginal":
        """Collapse a 2-D marginal onto one of its attributes."""
        if attribute not in self.attributes:
            raise CatalogError(
                f"cannot project marginal over {self.attributes} onto {attribute!r}"
            )
        if self.ndim == 1:
            return self
        axis = self.attributes.index(attribute)
        cells: dict[tuple, float] = {}
        for key, mass in self._cells.items():
            sub = (key[axis],)
            cells[sub] = cells.get(sub, 0.0) + mass
        return Marginal((attribute,), cells, name=f"{self.name}|{attribute}")

    def l1_distance(self, other: "Marginal") -> float:
        """Total variation-style distance between two normalised marginals."""
        if tuple(other.attributes) != self.attributes:
            raise CatalogError(
                f"cannot compare marginals over {self.attributes} and {other.attributes}"
            )
        mine, theirs = self.normalized(), other.normalized()
        keys = set(mine) | set(theirs)
        return float(sum(abs(mine.get(k, 0.0) - theirs.get(k, 0.0)) for k in keys))

    def __repr__(self) -> str:
        label = self.name or "marginal"
        return (
            f"Marginal({label}, attrs={self.attributes}, cells={self.num_cells}, "
            f"mass={self.total_mass:g})"
        )


def _native(value):
    if isinstance(value, np.generic):
        return value.item()
    return value
