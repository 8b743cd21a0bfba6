"""Group-by machinery: dense group codes and row partitions by key columns."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.relational.relation import Relation


def group_codes(
    relation: Relation, keys: Sequence[str]
) -> tuple[np.ndarray, int, np.ndarray]:
    """Dense per-row group codes over the distinct values of ``keys``.

    Returns ``(codes, num_groups, first_indices)``:

    - ``codes[i]`` is the group id of row ``i``; ids run ``0..num_groups-1``
      in key-sorted order (per-column ``np.unique`` order, the same order
      :func:`group_rows` yields),
    - ``first_indices[g]`` is the first row (in row order) of group ``g``,
      usable as a representative for reading key values.

    With no key columns every row belongs to a single group 0 — even for an
    empty relation, where the one group has zero member rows.  This makes
    ungrouped aggregation a special case of grouped aggregation.
    """
    n = relation.num_rows
    if not keys:
        return (
            np.zeros(n, dtype=np.int64),
            1,
            np.zeros(1 if n else 0, dtype=np.int64),
        )
    if n == 0:
        return np.empty(0, dtype=np.int64), 0, np.empty(0, dtype=np.int64)

    if len(keys) == 1:
        uniques, codes = relation.dictionary(keys[0])
        return codes, len(uniques), _first_occurrences(codes, len(uniques))

    combined = np.zeros(n, dtype=np.int64)
    cross_product = 1
    for name in keys:
        uniques, codes = relation.dictionary(name)
        combined = combined * len(uniques) + codes
        cross_product *= len(uniques)

    # Multi-key combination leaves gaps (absent value pairs); re-densify.
    if cross_product <= max(4 * n, 1024):
        # Small key domain: presence mask + remap, no O(n log n) sort.
        present = np.flatnonzero(np.bincount(combined, minlength=cross_product))
        remap = np.empty(cross_product, dtype=np.int64)
        remap[present] = np.arange(len(present))
        codes = remap[combined]
        return codes, len(present), _first_occurrences(codes, len(present))
    uniques, first_indices, codes = np.unique(
        combined, return_index=True, return_inverse=True
    )
    return (
        codes.astype(np.int64, copy=False),
        len(uniques),
        first_indices.astype(np.int64, copy=False),
    )


def _first_occurrences(codes: np.ndarray, num_groups: int) -> np.ndarray:
    """First row index of each group, without sorting.

    Fancy assignment with duplicate indices keeps the last write; writing
    row indices in reverse row order therefore leaves each group's minimum.
    """
    n = codes.shape[0]
    first = np.empty(num_groups, dtype=np.int64)
    first[codes[::-1]] = np.arange(n - 1, -1, -1)
    return first


def stable_group_order(codes: np.ndarray, num_groups: int) -> np.ndarray:
    """``np.argsort(codes, kind="stable")`` for codes in ``[0, num_groups)``.

    A stable order is unique — equal codes keep row order — so sorting the
    same values in a narrower dtype returns the same permutation.  Codes
    narrow to ``uint8`` / ``uint16`` when the group count fits, where
    numpy's stable sort is a radix sort: about 10x the int64 timsort on
    60k rows of a few thousand groups.
    """
    if num_groups <= 1 << 8:
        codes = codes.astype(np.uint8)
    elif num_groups <= 1 << 16:
        codes = codes.astype(np.uint16)
    return np.argsort(codes, kind="stable")


def group_rows(
    relation: Relation, keys: Sequence[str]
) -> list[tuple[tuple, np.ndarray]]:
    """Partition row indices by the distinct values of ``keys``.

    Returns ``[(key_values, row_indices), ...]`` ordered by key (the same
    order ``np.unique`` yields, i.e. sorted per column).  ``key_values`` is a
    tuple of Python-native scalars aligned with ``keys``.

    With no key columns, the entire relation forms a single group with an
    empty key tuple — this makes ungrouped aggregation a special case of
    grouped aggregation.
    """
    if not keys:
        return [((), np.arange(relation.num_rows))]

    codes, num_groups, first_indices = group_codes(relation, keys)
    if num_groups == 0:
        return []

    order = stable_group_order(codes, num_groups)
    boundaries = np.flatnonzero(np.diff(codes[order])) + 1
    groups = np.split(order, boundaries)

    key_columns = [relation.column(name) for name in keys]
    result: list[tuple[tuple, np.ndarray]] = []
    for group_id, indices in enumerate(groups):
        representative = first_indices[group_id]
        key = tuple(_to_python(column[representative]) for column in key_columns)
        result.append((key, indices))
    return result


def distinct_indices(relation: Relation, keys: Sequence[str]) -> np.ndarray:
    """Row indices of the first occurrence of each distinct key combination.

    Computed directly from the combined group codes — no per-group
    partitioning.
    """
    _, _, first_indices = group_codes(relation, keys)
    return first_indices


def _to_python(value):
    if isinstance(value, np.generic):
        return value.item()
    return value
