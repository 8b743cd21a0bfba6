"""Unit tests for known-mechanism inverse-probability reweighting."""

import numpy as np
import pytest

from repro import MosaicDB
from repro.catalog.metadata import Marginal
from repro.catalog.sample import SampleRelation
from repro.errors import ReweightError
from repro.mechanisms import (
    CustomMechanism,
    PredicateBiasedMechanism,
    StratifiedMechanism,
    UniformMechanism,
)
from repro.relational.expressions import ColumnRef, Literal
from repro.relational.predicates import Comparison
from repro.relational.relation import Relation
from repro.reweight.inverse_probability import declared_mechanism_weights


@pytest.fixture
def population():
    rng = np.random.default_rng(11)
    return Relation.from_dict(
        {
            "stratum": rng.choice(["a", "b"], size=1000, p=[0.9, 0.1]).tolist(),
            "v": rng.normal(size=1000),
        }
    )


def stratum_marginal(population):
    strata = population.column("stratum").tolist()
    return Marginal(["stratum"], {(s,): strata.count(s) for s in set(strata)})


def drawn_db(population, mechanism, marginal=None):
    """A database whose only sample is drawn from ``population`` by ``mechanism``."""
    db = MosaicDB(seed=0)
    db.execute("CREATE GLOBAL POPULATION P (stratum TEXT, v FLOAT)")
    if marginal is not None:
        db.register_marginal("P_M1", "P", marginal)
    db.draw_sample("S", "P", population, mechanism)
    return db


class TestFromPopulation:
    """A sample drawn from population data: SEMI-OPEN weights it from the
    mechanism's declaration alone, and recovers the population's counts."""

    def test_uniform(self, population):
        db = drawn_db(population, UniformMechanism(10))
        assert np.allclose(db.catalog.sample("S").weights, 1.0)  # stored unweighted
        result = db.execute("SELECT SEMI-OPEN COUNT(*) AS n FROM P")
        assert result.has_note("known mechanism UNIFORM PERCENT 10")
        assert result.scalar() == pytest.approx(population.num_rows)

    def test_stratified_estimates_population_size(self, population):
        marginal = stratum_marginal(population)
        db = drawn_db(population, StratifiedMechanism("stratum", 20), marginal)
        result = db.execute(
            "SELECT SEMI-OPEN stratum, COUNT(*) AS n FROM P GROUP BY stratum"
        )
        assert result.has_note("known mechanism STRATIFIED ON stratum PERCENT 20")
        counts = {row["stratum"]: row["n"] for row in result.to_pylist()}
        assert counts == pytest.approx({key[0]: mass for key, mass in marginal.cells()})
        assert sum(counts.values()) == pytest.approx(population.num_rows)


@pytest.mark.parametrize(
    "mechanism",
    [
        CustomMechanism(lambda rel: np.full(rel.num_rows, 0.1), label="flat10"),
        PredicateBiasedMechanism(
            Comparison("=", ColumnRef("stratum"), Literal("it's")), percent=10, bias=0.9
        ),
    ],
    ids=["custom", "biased"],
)
def test_undeclarable_mechanism_falls_back_to_ipf(population, mechanism):
    """A mechanism whose inclusion probabilities need the population data
    cannot weight a sample from its declaration: SEMI-OPEN rakes instead,
    and its note names the mechanism in re-parseable SQL."""
    marginal = stratum_marginal(population)
    db = drawn_db(population, mechanism, marginal)
    result = db.execute("SELECT SEMI-OPEN stratum, COUNT(*) AS n FROM P GROUP BY stratum")
    assert result.has_note(
        "known mechanism unusable (cannot derive inclusion probabilities for "
        f"mechanism {mechanism.describe()} from its declaration alone); "
        "falling back to IPF"
    )
    counts = {row["stratum"]: row["n"] for row in result.to_pylist()}
    assert counts == pytest.approx({key[0]: mass for key, mass in marginal.cells()})


class TestDeclaredUniform:
    def test_weights_are_inverse_percent(self):
        rel = Relation.from_dict({"x": [1.0, 2.0, 3.0]})
        sample = SampleRelation("S", rel, "GP", mechanism=UniformMechanism(5))
        w = declared_mechanism_weights(sample)
        assert np.allclose(w, 20.0)

    def test_no_mechanism_raises(self):
        rel = Relation.from_dict({"x": [1.0]})
        sample = SampleRelation("S", rel, "GP")
        with pytest.raises(ReweightError, match="no declared"):
            declared_mechanism_weights(sample)


class TestDeclaredStratified:
    def make_sample(self):
        rel = Relation.from_dict({"stratum": ["a", "a", "b", "b"], "v": [1.0, 2.0, 3.0, 4.0]})
        return SampleRelation(
            "S", rel, "GP", mechanism=StratifiedMechanism("stratum", 40)
        )

    def test_with_marginal(self):
        sample = self.make_sample()
        marginal = Marginal(["stratum"], {("a",): 90, ("b",): 10})
        w = declared_mechanism_weights(sample, [marginal])
        assert w[:2].tolist() == [45.0, 45.0]  # N_a/n_a = 90/2
        assert w[2:].tolist() == [5.0, 5.0]
        assert np.sum(w) == pytest.approx(100.0)

    def test_projects_two_dimensional_marginal(self):
        sample = self.make_sample()
        marginal = Marginal(
            ["stratum", "other"],
            {("a", "x"): 50, ("a", "y"): 40, ("b", "x"): 10},
        )
        w = declared_mechanism_weights(sample, [marginal])
        assert np.sum(w) == pytest.approx(100.0)

    def test_without_marginal_raises(self):
        sample = self.make_sample()
        with pytest.raises(ReweightError, match="needs a 1-D marginal"):
            declared_mechanism_weights(sample, [])

    def test_stratum_missing_from_marginal_raises(self):
        sample = self.make_sample()
        marginal = Marginal(["stratum"], {("a",): 90})
        with pytest.raises(ReweightError, match="missing from the marginal"):
            declared_mechanism_weights(sample, [marginal])
