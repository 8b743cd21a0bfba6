"""Group-by machinery: dense group codes and row partitions by key columns."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.relational.relation import Relation


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

    codes, num_groups, first_indices = relation.group_codes(keys)
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
    _, _, first_indices = relation.group_codes(keys)
    return first_indices


def _to_python(value):
    if isinstance(value, np.generic):
        return value.item()
    return value
