"""Chow-Liu structure learning over weighted discrete data.

The Chow-Liu algorithm finds the tree-structured Bayesian network that
maximises the data likelihood: a maximum spanning tree of the complete
graph whose edge weights are pairwise mutual information.  Weighted counts
let the tree be learned from an IPF-raked sample, so the structure reflects
the *population* mass rather than the sampling bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GenerativeModelError


@dataclass(frozen=True)
class TreeStructure:
    """A rooted tree: per-node parent (root maps to None) + topological order."""

    parents: dict[str, str | None]
    order: tuple[str, ...]  # parents before children

    @property
    def root(self) -> str:
        return self.order[0]

    def children(self, node: str) -> list[str]:
        return [child for child, parent in self.parents.items() if parent == node]


def mutual_information(
    codes_a: np.ndarray,
    codes_b: np.ndarray,
    size_a: int,
    size_b: int,
    weights: np.ndarray,
) -> float:
    """Weighted mutual information between two coded attributes (nats)."""
    joint = np.zeros((size_a, size_b))
    np.add.at(joint, (codes_a, codes_b), weights)
    total = joint.sum()
    if total <= 0:
        raise GenerativeModelError("mutual information of zero-mass data")
    joint /= total
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nonzero = joint > 0
    outer = np.outer(pa, pb)
    return float(np.sum(joint[nonzero] * np.log(joint[nonzero] / outer[nonzero])))


def learn_chow_liu(
    codes: dict[str, np.ndarray],
    domain_sizes: dict[str, int],
    weights: np.ndarray,
    root: str | None = None,
) -> TreeStructure:
    """Learn the maximum-MI spanning tree and orient it from ``root``.

    ``codes`` maps each attribute to integer value codes per row; the root
    defaults to the first attribute (insertion order).
    """
    names = list(codes)
    if not names:
        raise GenerativeModelError("cannot learn a structure over zero attributes")
    if root is None:
        root = names[0]
    if root not in codes:
        raise GenerativeModelError(f"root {root!r} is not an attribute")

    if len(names) == 1:
        return TreeStructure(parents={names[0]: None}, order=(names[0],))

    edges = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            mi = mutual_information(
                codes[a], codes[b], domain_sizes[a], domain_sizes[b], weights
            )
            edges.append((a, b, mi))
    return maximum_spanning_tree(names, edges, root)


def maximum_spanning_tree(
    names: list[str], edges: list[tuple[str, str, float]], root: str
) -> TreeStructure:
    """Kruskal's maximum spanning tree over ``edges``, oriented from ``root``.

    Ties are broken as ``networkx.maximum_spanning_tree`` followed by
    ``networkx.bfs_edges`` break them: a stable descending sort keeps tied
    edges in the order given, each node's neighbours are visited in the
    order their edges were accepted, and a breadth-first walk from
    ``root`` gives every other node its parent.
    """
    leader = {name: name for name in names}

    def find(node: str) -> str:
        while leader[node] != node:
            leader[node] = leader[leader[node]]
            node = leader[node]
        return node

    adjacency: dict[str, list[str]] = {name: [] for name in names}
    for a, b, _ in sorted(edges, key=lambda edge: edge[2], reverse=True):
        leader_a, leader_b = find(a), find(b)
        if leader_a != leader_b:
            leader[leader_a] = leader_b
            adjacency[a].append(b)
            adjacency[b].append(a)

    parents: dict[str, str | None] = {root: None}
    order: list[str] = [root]
    for parent in order:  # grows while it is walked: a breadth-first queue
        for child in adjacency[parent]:
            if child not in parents:
                parents[child] = parent
                order.append(child)
    return TreeStructure(parents=parents, order=tuple(order))
