"""Unit and statistical tests for the sampling mechanisms."""

import numpy as np
import pytest

from repro.errors import ReweightError
from repro.mechanisms import (
    CustomMechanism,
    PredicateBiasedMechanism,
    StratifiedMechanism,
    UniformMechanism,
)
from repro.mechanisms.base import sample_size, validate_percent
from repro.relational.expressions import ColumnRef, Literal
from repro.relational.predicates import Comparison
from repro.relational.relation import Relation


@pytest.fixture
def population():
    rng = np.random.default_rng(7)
    n = 2000
    return Relation.from_dict(
        {
            "value": rng.normal(size=n),
            "stratum": rng.choice(["a", "b", "c", "rare"], size=n, p=[0.5, 0.3, 0.19, 0.01]),
        }
    )


class TestHelpers:
    def test_validate_percent_bounds(self):
        assert validate_percent(10) == 10.0
        with pytest.raises(ReweightError):
            validate_percent(0)
        with pytest.raises(ReweightError):
            validate_percent(101)

    def test_sample_size(self):
        assert sample_size(1000, 10) == 100
        assert sample_size(10, 1) == 1  # at least one row
        assert sample_size(0, 50) == 0
        assert sample_size(10, 100) == 10


class TestUniform:
    def test_draw_size(self, population):
        mech = UniformMechanism(10)
        idx = mech.draw(population, np.random.default_rng(0))
        assert len(idx) == 200
        assert len(set(idx.tolist())) == 200  # without replacement

    def test_inclusion_probabilities_constant(self, population):
        probs = UniformMechanism(10).inclusion_probabilities(population)
        assert np.allclose(probs, 0.1)

    def test_inverse_probability_weights(self, population):
        mech = UniformMechanism(10)
        idx = mech.draw(population, np.random.default_rng(0))
        weights = 1.0 / mech.inclusion_probabilities(population)[idx]
        assert np.allclose(weights, 10.0)
        # Weighted sample size estimates the population size exactly.
        assert np.sum(weights) == pytest.approx(population.num_rows)

    def test_describe(self):
        assert UniformMechanism(10).describe() == "UNIFORM PERCENT 10"


class TestStratified:
    def test_equal_allocation_covers_rare_stratum(self, population):
        mech = StratifiedMechanism("stratum", 10)
        idx = mech.draw(population, np.random.default_rng(1))
        sampled = population.take(idx)
        strata = set(sampled.column("stratum").tolist())
        assert "rare" in strata  # equal allocation guarantees coverage

    def test_total_size_preserved_when_feasible(self, population):
        mech = StratifiedMechanism("stratum", 10)
        idx = mech.draw(population, np.random.default_rng(1))
        assert len(idx) == sample_size(population.num_rows, 10)

    def test_inclusion_probabilities_sum_to_sample_size(self, population):
        mech = StratifiedMechanism("stratum", 10)
        probs = mech.inclusion_probabilities(population)
        assert np.sum(probs) == pytest.approx(sample_size(population.num_rows, 10))

    def test_inverse_weights_recover_stratum_sizes(self, population):
        mech = StratifiedMechanism("stratum", 20)
        rng = np.random.default_rng(2)
        idx = mech.draw(population, rng)
        weights = 1.0 / mech.inclusion_probabilities(population)[idx]
        sampled = population.take(idx)
        # Per-stratum weighted counts equal true stratum sizes (exactly,
        # because allocation within a stratum is uniform).
        for stratum in ["a", "b", "c", "rare"]:
            mask = np.asarray(
                [s == stratum for s in sampled.column("stratum")], dtype=bool
            )
            true_count = sum(
                1 for s in population.column("stratum") if s == stratum
            )
            assert np.sum(weights[mask]) == pytest.approx(true_count)

    def test_describe(self):
        assert (
            StratifiedMechanism("A1", 20).describe() == "STRATIFIED ON A1 PERCENT 20"
        )


class TestPredicateBiased:
    def predicate(self):
        return Comparison(">", ColumnRef("value"), Literal(0.5))

    def test_bias_share(self, population):
        mech = PredicateBiasedMechanism(self.predicate(), percent=10, bias=0.95)
        idx = mech.draw(population, np.random.default_rng(3))
        sampled = population.take(idx)
        long_share = np.mean(sampled.column("value") > 0.5)
        assert long_share == pytest.approx(0.95, abs=0.01)

    def test_sample_size(self, population):
        mech = PredicateBiasedMechanism(self.predicate(), percent=10, bias=0.95)
        idx = mech.draw(population, np.random.default_rng(3))
        assert len(idx) == sample_size(population.num_rows, 10)

    def test_inverse_weights_debias_exactly(self, population):
        mech = PredicateBiasedMechanism(self.predicate(), percent=10, bias=0.95)
        idx = mech.draw(population, np.random.default_rng(4))
        weights = 1.0 / mech.inclusion_probabilities(population)[idx]
        sampled = population.take(idx)
        matching = np.asarray(sampled.column("value") > 0.5)
        true_matching = int(np.sum(population.column("value") > 0.5))
        assert np.sum(weights[matching]) == pytest.approx(true_matching)
        assert np.sum(weights) == pytest.approx(population.num_rows)

    def test_describe_renders_a_quoted_predicate_as_sql(self):
        predicate = Comparison("=", ColumnRef("name"), Literal("O'Hare"))
        mech = PredicateBiasedMechanism(predicate, percent=10, bias=0.9)
        assert mech.describe() == "BIASED ON (name = 'O''Hare') PERCENT 10 BIAS 0.9"

    def test_bias_out_of_range(self, population):
        with pytest.raises(ReweightError):
            PredicateBiasedMechanism(self.predicate(), percent=10, bias=1.5)

    def test_overflow_shifts_to_other_side(self):
        # Only 2 tuples match but bias asks for ~9 of 10: deficit moves over.
        rel = Relation.from_dict({"value": [1.0] * 2 + [0.0] * 98})
        predicate = Comparison(">", ColumnRef("value"), Literal(0.5))
        mech = PredicateBiasedMechanism(predicate, percent=10, bias=0.9)
        idx = mech.draw(rel, np.random.default_rng(5))
        assert len(idx) == 10


class TestCustom:
    def test_probabilities_used(self, population):
        mech = CustomMechanism(lambda rel: np.full(rel.num_rows, 0.05), label="flat5")
        assert mech.describe() == "flat5"
        probs = mech.inclusion_probabilities(population)
        assert np.allclose(probs, 0.05)
        idx = mech.draw(population, np.random.default_rng(6))
        # Poisson sampling: E[|S|] = 100, loose bound to avoid flakiness.
        assert 50 <= len(idx) <= 160

    def test_bad_shape_rejected(self, population):
        mech = CustomMechanism(lambda rel: np.ones(3))
        with pytest.raises(ReweightError, match="shape"):
            mech.inclusion_probabilities(population)

    def test_out_of_range_rejected(self, population):
        mech = CustomMechanism(lambda rel: np.full(rel.num_rows, 1.5))
        with pytest.raises(ReweightError, match="0, 1"):
            mech.inclusion_probabilities(population)
