"""Unit tests for cube IPF, weight helpers, and raking/cube agreement."""

import numpy as np
import pytest

from repro.catalog.metadata import Marginal
from repro.errors import ReweightError
from repro.relational.relation import Relation
from repro.reweight.contingency import Binner, assign_cells
from repro.reweight.cube import cube_ipf
from repro.reweight.ipf import ipf_reweight
from repro.reweight.weights import uniform_weights, validate_weights


class TestCubeIpf:
    def test_fits_row_and_column_marginals(self):
        m1 = Marginal(["a"], {("x",): 60, ("y",): 40})
        m2 = Marginal(["b"], {("1",): 30, ("2",): 70})
        result = cube_ipf(["a", "b"], [["x", "y"], ["1", "2"]], [m1, m2])
        assert result.converged
        assert result.table.sum() == pytest.approx(100)
        assert result.to_marginal(["a"]).mass(("x",)) == pytest.approx(60)
        assert result.to_marginal(["b"]).mass(("2",)) == pytest.approx(70)

    def test_uniform_seed_gives_independence(self):
        m1 = Marginal(["a"], {("x",): 50, ("y",): 50})
        m2 = Marginal(["b"], {("1",): 20, ("2",): 80})
        result = cube_ipf(["a", "b"], [["x", "y"], ["1", "2"]], [m1, m2])
        # Max-entropy fit of independent marginals is the product measure.
        assert result.mass(("x", "1")) == pytest.approx(10.0)
        assert result.mass(("y", "2")) == pytest.approx(40.0)

    def test_seed_structure_preserved(self):
        m1 = Marginal(["a"], {("x",): 50, ("y",): 50})
        m2 = Marginal(["b"], {("1",): 50, ("2",): 50})
        seed = np.array([[1.0, 0.0], [0.0, 1.0]])  # only diagonal cells allowed
        result = cube_ipf(["a", "b"], [["x", "y"], ["1", "2"]], [m1, m2], seed_table=seed)
        assert result.mass(("x", "2")) == 0.0
        assert result.mass(("x", "1")) == pytest.approx(50.0)

    def test_marginal_attribute_order_independent(self):
        # Marginal declared as (b, a) while the cube stores (a, b).
        m = Marginal(
            ["b", "a"], {("1", "x"): 10, ("2", "x"): 20, ("1", "y"): 30, ("2", "y"): 40}
        )
        result = cube_ipf(["a", "b"], [["x", "y"], ["1", "2"]], [m])
        assert result.mass(("x", "2")) == pytest.approx(20.0)
        assert result.mass(("y", "1")) == pytest.approx(30.0)

    def test_out_of_domain_cell_raises(self):
        m = Marginal(["a"], {("zz",): 1})
        with pytest.raises(ReweightError, match="outside the declared domain"):
            cube_ipf(["a"], [["x", "y"]], [m])

    def test_three_dimensional_cube(self):
        m1 = Marginal(["a"], {("x",): 50, ("y",): 50})
        m2 = Marginal(["b", "c"], {("1", "p"): 30, ("1", "q"): 20, ("2", "p"): 40, ("2", "q"): 10})
        result = cube_ipf(
            ["a", "b", "c"], [["x", "y"], ["1", "2"], ["p", "q"]], [m1, m2]
        )
        assert result.converged
        assert result.to_marginal(["b", "c"]).mass(("2", "p")) == pytest.approx(40)


class TestRakingMatchesCube:
    def test_agreement_on_occupied_cells(self):
        """Tuple raking == cube IPF seeded with the sample's contingency counts."""
        rng = np.random.default_rng(3)
        n = 400
        a = rng.choice(["x", "y", "z"], size=n, p=[0.6, 0.3, 0.1])
        b = rng.choice(["1", "2"], size=n, p=[0.8, 0.2])
        rel = Relation.from_dict({"a": a.tolist(), "b": b.tolist()})
        m1 = Marginal(["a"], {("x",): 100, ("y",): 250, ("z",): 650})
        m2 = Marginal(["b"], {("1",): 300, ("2",): 700})

        raked = ipf_reweight(rel, [m1, m2], tolerance=1e-12)

        domains = [["x", "y", "z"], ["1", "2"]]
        seed = np.zeros((3, 2))
        for i in range(n):
            seed[domains[0].index(a[i]), domains[1].index(b[i])] += 1
        cube = cube_ipf(["a", "b"], domains, [m1, m2], seed_table=seed, tolerance=1e-12)

        fitted = Marginal.from_data(rel, ["a", "b"], weights=raked.weights)
        for key, mass in fitted.cells():
            assert mass == pytest.approx(cube.mass(key), rel=1e-6)


class TestWeightHelpers:
    def test_uniform_weights(self):
        out = uniform_weights(4, 100.0)
        assert out.tolist() == [25.0] * 4

    def test_uniform_weights_zero_rows_raises(self):
        with pytest.raises(ReweightError):
            uniform_weights(0, 10.0)

    def test_validate_rejects_nan_and_negative(self):
        with pytest.raises(ReweightError):
            validate_weights(np.array([np.nan]))
        with pytest.raises(ReweightError):
            validate_weights(np.array([-0.1]))


class TestCellAssignment:
    def test_assignment_and_masses(self):
        rel = Relation.from_dict({"c": ["UK", "FR", "UK", "XX"]})
        marginal = Marginal(["c"], {("UK",): 10, ("FR",): 5, ("DE",): 2})
        assignment = assign_cells(rel, marginal)
        rows = [assignment.cell_keys[cell] for cell in assignment.row_cell]
        assert rows == [("UK",), ("FR",), ("UK",), ("XX",)]
        by_key = dict(zip(assignment.cell_keys, assignment.target_mass))
        assert by_key[("XX",)] == 0  # sample-only cell, target mass 0
        assert ("DE",) in by_key  # marginal-only cell: no rows
        assert assignment.unreachable_mass() == 2.0  # DE mass unreachable


class TestBinner:
    def test_fit_and_assign(self):
        values = np.array([0.0, 2.5, 5.0, 9.9, 10.0])
        binner = Binner.fit(values, bins=5)
        labels = binner.assign(values)
        assert labels.tolist() == [0, 1, 2, 4, 4]

    def test_out_of_range_clamped(self):
        binner = Binner(0.0, 10.0, 5)
        assert binner.assign(np.array([-5.0, 15.0])).tolist() == [0, 4]

    def test_midpoints(self):
        binner = Binner(0.0, 10.0, 5)
        assert binner.midpoints().tolist() == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_constant_values(self):
        binner = Binner.fit(np.array([3.0, 3.0]), bins=4)
        assert binner.assign(np.array([3.0])).tolist() == [0]

    def test_invalid_construction(self):
        with pytest.raises(ReweightError):
            Binner(0.0, 0.0, 5)
        with pytest.raises(ReweightError):
            Binner(0.0, 1.0, 0)
