"""Unit tests for the catalog and its population/sample objects."""

import numpy as np
import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.metadata import Marginal
from repro.catalog.population import PopulationRelation
from repro.catalog.sample import SampleRelation
from repro.errors import CatalogError, DuplicateRelationError, UnknownRelationError
from repro.relational.dtypes import DType
from repro.relational.relation import Relation
from repro.relational.schema import Schema


def make_gp(name="GP"):
    return PopulationRelation(
        name, Schema.of(country=DType.TEXT, email=DType.TEXT), is_global=True
    )


def make_sample(name="S", population="GP", rows=3):
    rel = Relation.from_dict(
        {"country": ["UK"] * rows, "email": ["Yahoo"] * rows}
    )
    return SampleRelation(name, rel, population)


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.create_population(make_gp())
    return cat


class TestAuxiliary:
    def test_create_and_lookup(self, catalog):
        rel = Relation.from_dict({"x": [1]})
        catalog.create_auxiliary("aux", rel)
        assert catalog.auxiliary("aux") is rel
        assert catalog.kind_of("aux") == "auxiliary"

    def test_duplicate_rejected(self, catalog):
        catalog.create_auxiliary("aux", Relation.from_dict({"x": [1]}))
        with pytest.raises(DuplicateRelationError):
            catalog.create_auxiliary("aux", Relation.from_dict({"x": [2]}))

    def test_replace(self, catalog):
        catalog.create_auxiliary("aux", Relation.from_dict({"x": [1]}))
        catalog.replace_auxiliary("aux", Relation.from_dict({"x": [1, 2]}))
        assert catalog.auxiliary("aux").num_rows == 2

    def test_unknown_lookup(self, catalog):
        with pytest.raises(UnknownRelationError):
            catalog.auxiliary("nope")


class TestPopulations:
    def test_global_population(self, catalog):
        assert catalog.global_population.name == "GP"
        assert catalog.global_population.is_global

    def test_second_global_rejected(self, catalog):
        with pytest.raises(CatalogError, match="already exists"):
            catalog.create_population(make_gp("GP2"))

    def test_derived_population(self, catalog):
        derived = PopulationRelation(
            "UkOnly",
            Schema.of(country=DType.TEXT, email=DType.TEXT),
            source_population="GP",
        )
        catalog.create_population(derived)
        assert catalog.population("UkOnly").source_population == "GP"

    def test_derived_requires_existing_global(self):
        cat = Catalog()
        derived = PopulationRelation(
            "D", Schema.of(x=DType.INT), source_population="GP"
        )
        with pytest.raises(CatalogError):
            cat.create_population(derived)

    def test_population_neither_global_nor_derived_rejected(self):
        with pytest.raises(CatalogError):
            PopulationRelation("P", Schema.of(x=DType.INT))


class TestSamples:
    def test_create_and_lookup(self, catalog):
        catalog.create_sample(make_sample())
        assert catalog.sample("S").num_rows == 3
        assert catalog.kind_of("S") == "sample"

    def test_unknown_population_rejected(self, catalog):
        with pytest.raises(CatalogError, match="unknown population"):
            catalog.create_sample(make_sample(population="Nope"))

    def test_samples_of(self, catalog):
        catalog.create_sample(make_sample("S1"))
        catalog.create_sample(make_sample("S2"))
        assert [s.name for s in catalog.samples_of("GP")] == ["S1", "S2"]

    def test_name_collision_across_kinds(self, catalog):
        catalog.create_sample(make_sample("S"))
        with pytest.raises(DuplicateRelationError):
            catalog.create_auxiliary("S", Relation.from_dict({"x": [1]}))


class TestSampleWeights:
    def test_initial_weights_are_ones(self):
        sample = make_sample()
        assert sample.weights.tolist() == [1.0, 1.0, 1.0]
        assert sample.total_weight == 3.0

    def test_set_weights_copies(self):
        sample = make_sample()
        w = np.array([1.0, 2.0, 3.0])
        sample.set_weights(w)
        w[0] = 99.0
        assert sample.weights[0] == 1.0

    def test_negative_weights_rejected(self):
        sample = make_sample()
        with pytest.raises(CatalogError, match="non-negative"):
            sample.set_weights(np.array([-1.0, 1.0, 1.0]))

    def test_nan_weights_rejected(self):
        sample = make_sample()
        with pytest.raises(CatalogError, match="finite"):
            sample.set_weights(np.array([np.nan, 1.0, 1.0]))

    def test_wrong_length_rejected(self):
        sample = make_sample()
        with pytest.raises(Exception):
            sample.set_weights(np.ones(5))

    def test_effective_sample_size_uniform(self):
        sample = make_sample()
        assert sample.effective_sample_size() == pytest.approx(3.0)

    def test_effective_sample_size_degenerate(self):
        sample = make_sample()
        sample.set_weights(np.array([100.0, 0.0, 0.0]))
        assert sample.effective_sample_size() == pytest.approx(1.0)

    def test_weighted_relation(self):
        sample = make_sample()
        rel = sample.weighted_relation()
        assert "weight" in rel.schema
        assert rel.column("weight").tolist() == [1.0, 1.0, 1.0]


class TestMetadataRegistry:
    def test_register_and_lookup(self, catalog):
        marginal = Marginal(["country"], {("UK",): 100})
        catalog.register_metadata("GP_M1", "GP", marginal)
        assert "GP_M1" in catalog.population("GP").marginals

    def test_metadata_attribute_must_exist(self, catalog):
        bad = Marginal(["nope"], {("x",): 1})
        with pytest.raises(CatalogError, match="not an"):
            catalog.register_metadata("GP_M1", "GP", bad)

    def test_duplicate_metadata_rejected(self, catalog):
        marginal = Marginal(["country"], {("UK",): 100})
        catalog.register_metadata("GP_M1", "GP", marginal)
        with pytest.raises(CatalogError):
            catalog.register_metadata("GP_M1", "GP", marginal)

    def test_resolve_by_prefix_convention(self, catalog):
        assert catalog.resolve_metadata_population("GP_M1", None) == "GP"

    def test_resolve_explicit_for(self, catalog):
        assert catalog.resolve_metadata_population("anything", "GP") == "GP"

    def test_resolve_single_population_fallback(self, catalog):
        assert catalog.resolve_metadata_population("Unrelated", None) == "GP"

    def test_resolve_ambiguous_raises(self, catalog):
        derived = PopulationRelation(
            "GP2",
            Schema.of(country=DType.TEXT, email=DType.TEXT),
            source_population="GP",
        )
        catalog.create_population(derived)
        with pytest.raises(CatalogError, match="cannot infer"):
            catalog.resolve_metadata_population("Unrelated", None)

    def test_estimated_size_median(self, catalog):
        catalog.register_metadata("GP_M1", "GP", Marginal(["country"], {("UK",): 100}))
        catalog.register_metadata("GP_M2", "GP", Marginal(["email"], {("Yahoo",): 110}))
        assert catalog.population("GP").estimated_size() == pytest.approx(105.0)


class TestDrop:
    def test_drop_table(self, catalog):
        catalog.create_auxiliary("aux", Relation.from_dict({"x": [1]}))
        catalog.drop("TABLE", "aux")
        with pytest.raises(UnknownRelationError):
            catalog.kind_of("aux")

    def test_drop_sample(self, catalog):
        catalog.create_sample(make_sample())
        catalog.drop("SAMPLE", "S")
        with pytest.raises(UnknownRelationError):
            catalog.kind_of("S")

    def test_drop_population_with_samples_rejected(self, catalog):
        catalog.create_sample(make_sample())
        with pytest.raises(CatalogError, match="depend"):
            catalog.drop("POPULATION", "GP")

    def test_drop_population_clears_global(self, catalog):
        catalog.drop("POPULATION", "GP")
        assert catalog.global_population is None
        catalog.create_population(make_gp("NewGP"))  # can recreate

    def test_drop_metadata(self, catalog):
        catalog.register_metadata("GP_M1", "GP", Marginal(["country"], {("UK",): 1}))
        catalog.drop("METADATA", "GP_M1")
        assert not catalog.population("GP").has_metadata

    def test_drop_unknown(self, catalog):
        with pytest.raises(UnknownRelationError):
            catalog.drop("TABLE", "nope")
