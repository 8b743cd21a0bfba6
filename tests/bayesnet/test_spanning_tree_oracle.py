"""Chow-Liu's own Kruskal + BFS against the networkx calls it replaced.

``maximum_spanning_tree`` must return the tree that
``networkx.maximum_spanning_tree`` + ``networkx.bfs_edges`` returned, ties
included: a BayesNet fit is a function of the tree, so the same tree is the
same fit to the byte.
"""

import pickle

import numpy as np
import pytest

import repro.bayesnet.structure as structure_module
from repro.bayesnet.model import BayesianNetworkModel
from repro.bayesnet.structure import (
    TreeStructure,
    learn_chow_liu,
    maximum_spanning_tree,
    mutual_information,
)
from repro.catalog.metadata import Marginal
from repro.relational.relation import Relation

nx = pytest.importorskip("networkx")


def networkx_tree(names, edges, root) -> TreeStructure:
    """The body ``learn_chow_liu`` had before it dropped networkx."""
    graph = nx.Graph()
    graph.add_nodes_from(names)
    for a, b, weight in edges:
        graph.add_edge(a, b, weight=weight)
    tree = nx.maximum_spanning_tree(graph)
    parents = {root: None}
    order = [root]
    for parent, child in nx.bfs_edges(tree, root):
        parents[child] = parent
        order.append(child)
    return TreeStructure(parents=parents, order=tuple(order))


def complete_graph(rng, tied: bool):
    names = [f"n{i}" for i in rng.permutation(int(rng.integers(2, 9)))]
    edges = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            # Three weight levels make most edges tie with another.
            weight = float(rng.integers(0, 3)) if tied else float(rng.random())
            edges.append((a, b, weight))
    return names, edges, names[int(rng.integers(len(names)))]


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
def test_matches_networkx_on_random_complete_graphs(tied):
    rng = np.random.default_rng(45 + tied)
    for _ in range(10_000):
        names, edges, root = complete_graph(rng, tied)
        ours = maximum_spanning_tree(names, edges, root)
        reference = networkx_tree(names, edges, root)
        assert ours.order == reference.order
        assert ours.parents == reference.parents


def test_chow_liu_matches_networkx_on_weighted_codes():
    rng = np.random.default_rng(7)
    sizes = {"a": 3, "b": 2, "c": 4, "d": 2, "e": 3}
    codes = {name: rng.integers(0, size, 400) for name, size in sizes.items()}
    codes["b"] = codes["a"] % 2  # one strong edge, the rest near zero
    codes["e"] = codes["a"].copy()  # a-b and e-b tie exactly
    weights = rng.random(400)
    names = list(codes)
    edges = [
        (a, b, mutual_information(codes[a], codes[b], sizes[a], sizes[b], weights))
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    ]
    for root in names:
        structure = learn_chow_liu(codes, sizes, weights, root=root)
        assert structure == networkx_tree(names, edges, root)


def test_fit_is_byte_identical_to_the_networkx_tree(monkeypatch):
    rng = np.random.default_rng(3)
    sample = Relation.from_dict(
        {
            "carrier": rng.choice(["AA", "DL", "WN"], size=300).tolist(),
            "delayed": rng.integers(0, 2, 300).tolist(),
            "distance": rng.normal(800.0, 200.0, 300).tolist(),
        }
    )
    marginals = [Marginal(["carrier"], {("AA",): 500, ("DL",): 300, ("WN",): 200})]
    fitted = BayesianNetworkModel(seed=0).fit(sample, marginals)
    monkeypatch.setattr(structure_module, "maximum_spanning_tree", networkx_tree)
    reference = BayesianNetworkModel(seed=0).fit(sample, marginals)
    assert fitted.structure == reference.structure
    assert pickle.dumps(fitted) == pickle.dumps(reference)
