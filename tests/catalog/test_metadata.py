"""Unit tests for marginal metadata."""

import numpy as np
import pytest

from repro.catalog.metadata import Marginal
from repro.errors import CatalogError
from repro.relational.relation import Relation


class TestConstruction:
    def test_one_dimensional(self):
        m = Marginal(["country"], {("UK",): 100, ("FR",): 50})
        assert m.ndim == 1
        assert m.total_mass == 150
        assert m.mass(("UK",)) == 100

    def test_scalar_keys_normalised_to_tuples(self):
        m = Marginal(["country"], {"UK": 10})
        assert m.mass("UK") == 10
        assert m.mass(("UK",)) == 10

    def test_two_dimensional(self):
        m = Marginal(["country", "email"], {("UK", "Yahoo"): 7, ("FR", "AOL"): 3})
        assert m.ndim == 2
        assert m.total_mass == 10

    def test_three_attributes_rejected(self):
        with pytest.raises(CatalogError, match="1 or 2"):
            Marginal(["a", "b", "c"], {("x", "y", "z"): 1})

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(CatalogError, match="distinct"):
            Marginal(["a", "a"], {("x", "y"): 1})

    def test_negative_mass_rejected(self):
        with pytest.raises(CatalogError, match="negative"):
            Marginal(["a"], {("x",): -1})

    def test_empty_rejected(self):
        with pytest.raises(CatalogError, match="no cells"):
            Marginal(["a"], {})

    def test_key_arity_mismatch_rejected(self):
        with pytest.raises(CatalogError, match="does not match"):
            Marginal(["a", "b"], {("x",): 1})


class TestFromRelation:
    def test_projection_form(self):
        rel = Relation.from_dict(
            {"country": ["UK", "FR"], "reported_count": [29000, 9000]}
        )
        m = Marginal.from_relation(["country"], rel, "reported_count")
        assert m.mass(("UK",)) == 29000

    def test_duplicates_summed(self):
        rel = Relation.from_dict({"c": ["UK", "UK"], "n": [10, 5]})
        m = Marginal.from_relation(["c"], rel, "n")
        assert m.mass(("UK",)) == 15


class TestFromData:
    def test_unweighted_counts(self):
        rel = Relation.from_dict({"tag": ["a", "a", "b"]})
        m = Marginal.from_data(rel, ["tag"])
        assert m.mass(("a",)) == 2
        assert m.mass(("b",)) == 1

    def test_weighted_counts(self):
        rel = Relation.from_dict({"tag": ["a", "a", "b"]})
        m = Marginal.from_data(rel, ["tag"], weights=np.array([2.0, 3.0, 4.0]))
        assert m.mass(("a",)) == 5.0
        assert m.mass(("b",)) == 4.0

    def test_two_dimensional_from_data(self):
        rel = Relation.from_dict({"a": ["x", "x", "y"], "b": [1, 2, 1]})
        m = Marginal.from_data(rel, ["a", "b"])
        assert m.mass(("x", 1)) == 1
        assert m.mass(("x", 2)) == 1
        assert m.mass(("y", 1)) == 1


class TestOperations:
    def test_normalized_sums_to_one(self):
        m = Marginal(["a"], {("x",): 3, ("y",): 1})
        probs = m.normalized()
        assert sum(probs.values()) == pytest.approx(1.0)
        assert probs[("x",)] == pytest.approx(0.75)

    def test_project_2d_to_1d(self):
        m = Marginal(["a", "b"], {("x", 1): 3, ("x", 2): 2, ("y", 1): 5})
        pa = m.project("a")
        assert pa.mass(("x",)) == 5
        assert pa.mass(("y",)) == 5
        pb = m.project("b")
        assert pb.mass((1,)) == 8

    def test_project_1d_is_identity(self):
        m = Marginal(["a"], {("x",): 1})
        assert m.project("a") is m

    def test_project_unknown_attribute(self):
        m = Marginal(["a"], {("x",): 1})
        with pytest.raises(CatalogError):
            m.project("b")

    def test_l1_distance_zero_for_self(self):
        m = Marginal(["a"], {("x",): 3, ("y",): 1})
        assert m.l1_distance(m) == 0.0

    def test_l1_distance_disjoint_is_two(self):
        m1 = Marginal(["a"], {("x",): 1})
        m2 = Marginal(["a"], {("y",): 1})
        assert m1.l1_distance(m2) == pytest.approx(2.0)

    def test_l1_distance_attribute_mismatch(self):
        m1 = Marginal(["a"], {("x",): 1})
        m2 = Marginal(["b"], {("x",): 1})
        with pytest.raises(CatalogError):
            m1.l1_distance(m2)
