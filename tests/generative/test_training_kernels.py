"""The M-SWG training-step kernels against the code they replaced.

``oracles`` (beside this file) holds the replaced implementations.  The
order kernel must return the stable order, and the nearest-sample kernel
the kd-tree's nearest point, on random blocks and on the inputs that
break a careless fast path; gradients built on them must be byte-equal.
"""

import numpy as np
import pytest

import oracles
from repro.generative.losses import (
    CoveragePenalty,
    QuantileMatchingLoss,
    SlicedMarginalLoss,
    coverage,
    random_unit_projections,
)
from repro.generative.losses.order import scatter_columns, sort_columns


@pytest.fixture
def rng():
    return np.random.default_rng(23)


def one_hot(codes: np.ndarray, width: int) -> np.ndarray:
    return np.eye(width)[codes]


def flights_shaped(rng, rows: int, distinct_numeric: int = 10_000) -> np.ndarray:
    """An encoded flights-like matrix: 14 one-hot columns, 4 numeric."""
    carriers = one_hot(rng.integers(0, 14, size=rows), 14)
    numeric = rng.integers(0, distinct_numeric, size=(rows, 4)) / distinct_numeric
    return np.concatenate([carriers, numeric], axis=1)


def generated_like(rng, sample: np.ndarray, n: int) -> np.ndarray:
    """Generator-like queries: sample rows blurred off the sample."""
    picks = sample[rng.integers(0, sample.shape[0], size=n)]
    return picks + rng.normal(scale=0.05, size=picks.shape)


# --------------------------------------------------------------------- #
# Order kernel
# --------------------------------------------------------------------- #


def assert_stable_order(z: np.ndarray) -> None:
    z_sorted, flat = sort_columns(z)
    expected = oracles.stable_order(z)
    width = z.shape[1] if z.ndim == 2 else 1
    assert np.array_equal(flat // width, expected)
    assert z_sorted.tobytes() == np.take_along_axis(z, expected, axis=0).tobytes()
    assert z_sorted.shape == z.shape and flat.shape == z.shape


class TestOrderKernel:
    @pytest.mark.parametrize("shape", [(500, 100), (64, 7), (1, 3), (2, 1), (17,), (1,)])
    def test_random_blocks(self, rng, shape):
        assert_stable_order(rng.normal(size=shape))

    def test_duplicated_batch_rows_tie_in_every_column(self, rng):
        x = rng.normal(size=(40, 3))
        x[10:20] = x[0:10]
        assert_stable_order(x @ random_unit_projections(rng, 3, 16).T)

    def test_saturated_one_hot_block(self, rng):
        # A softmax saturated to exact 0/1: three distinct rows, 60 copies.
        x = one_hot(rng.integers(0, 3, size=60), 3)
        assert_stable_order(x @ random_unit_projections(rng, 3, 16).T)

    def test_only_the_tied_columns_fall_back(self, rng):
        z = rng.normal(size=(50, 6))
        z[7, 2] = z[31, 2]
        z[4, 5] = z[3, 5]
        assert_stable_order(z)

    def test_signed_zeros_and_nans_are_ties(self):
        assert_stable_order(np.array([0.0, -0.0, -1.0, 0.0, -0.0]))
        assert_stable_order(np.array([[np.nan, 1.0], [0.5, 1.0], [np.nan, 0.0]]))

    def test_scatter_undoes_the_sort(self, rng):
        z = rng.normal(size=(30, 5))
        z[3] = z[4]
        z_sorted, flat = sort_columns(z)
        assert scatter_columns(z_sorted, flat).tobytes() == z.tobytes()
        values = rng.normal(size=z.shape)
        expected = np.empty_like(values)
        np.put_along_axis(expected, oracles.stable_order(z), values, axis=0)
        assert scatter_columns(values, flat).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("tied", [False, True])
    def test_sliced_loss_and_gradient_bytes(self, rng, power, tied):
        projections = random_unit_projections(rng, 5, 32)
        loss = SlicedMarginalLoss(
            rng.normal(size=(40, 5)), rng.random(40) + 0.1, projections, 96, power=power
        )
        x = rng.normal(size=(96, 5))
        if tied:
            x[48:] = x[:48]
        value, grad = loss.loss_and_grad(x)
        expected_value, expected_grad = oracles.sliced_loss_and_grad(loss, x)
        assert value == expected_value
        assert grad.tobytes() == expected_grad.tobytes()

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("tied", [False, True])
    def test_quantile_loss_and_gradient_bytes(self, rng, power, tied):
        loss = QuantileMatchingLoss(rng.normal(size=200), None, 96, power=power)
        x = rng.normal(size=96)
        if tied:
            x[48:] = x[:48]
        value, grad = loss.loss_and_grad(x)
        expected_value, expected_grad = oracles.quantile_loss_and_grad(loss, x)
        assert value == expected_value
        assert grad.tobytes() == expected_grad.tobytes()

    def test_quantile_loss_accepts_a_strided_column(self, rng):
        loss = QuantileMatchingLoss(rng.normal(size=50), None, 32)
        block = rng.normal(size=(32, 3))
        value, grad = loss.loss_and_grad(block[:, 1])
        expected_value, expected_grad = oracles.quantile_loss_and_grad(loss, block[:, 1])
        assert value == expected_value
        assert grad.tobytes() == expected_grad.tobytes()


# --------------------------------------------------------------------- #
# Nearest-sample kernel
# --------------------------------------------------------------------- #


def assert_nearest_matches_kdtree(penalty: CoveragePenalty, x: np.ndarray) -> None:
    _, indices = oracles.kdtree_nearest(penalty.sample_points, x)
    assert np.array_equal(penalty.nearest_points(x), penalty.sample_points[indices])


def squared_distances(x: np.ndarray, points: np.ndarray) -> np.ndarray:
    diff = x - points
    return np.einsum("ij,ij->i", diff, diff)


class TestNearestKernel:
    def test_wide_one_hot_sample_uses_the_gemm(self, rng):
        sample = flights_shaped(rng, 2_000)
        penalty = CoveragePenalty(sample, lam=0.04)
        assert penalty.nearest == "gemm"
        assert penalty.unique_sample_rows == np.unique(sample, axis=0).shape[0]
        assert_nearest_matches_kdtree(penalty, generated_like(rng, sample, 500))
        assert_nearest_matches_kdtree(penalty, rng.random(size=(500, 18)))

    def test_low_dimensional_numeric_sample_uses_the_kdtree(self, rng):
        sample = rng.normal(size=(1_000, 2))
        penalty = CoveragePenalty(sample, lam=0.04)
        assert penalty.nearest == "kdtree"
        assert penalty.unique_sample_rows == 1_000
        assert_nearest_matches_kdtree(penalty, rng.normal(size=(300, 2)))

    def test_the_rule_counts_distinct_rows_not_rows(self, rng):
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        sample = corners[rng.integers(0, 4, size=500)]
        penalty = CoveragePenalty(sample, lam=1.0)
        assert (penalty.nearest, penalty.unique_sample_rows) == ("gemm", 4)
        five = np.concatenate([sample, [[0.5, 0.5]]])
        assert CoveragePenalty(five, lam=1.0).nearest == "kdtree"
        # Off the diagonals, so no query is equidistant from two corners.
        x = rng.random(size=(200, 2)) * np.array([0.4, 0.3]) + np.array([0.55, 0.1])
        assert_nearest_matches_kdtree(penalty, x)

    def test_duplicated_sample_rows(self, rng):
        distinct = flights_shaped(rng, 300)
        sample = distinct[rng.integers(0, 300, size=2_000)]
        penalty = CoveragePenalty(sample, lam=0.04)
        assert penalty.unique_sample_rows == np.unique(sample, axis=0).shape[0] <= 300
        assert_nearest_matches_kdtree(penalty, generated_like(rng, sample, 400))

    def test_one_row_sample(self, rng):
        sample = rng.normal(size=(1, 6))
        penalty = CoveragePenalty(sample, lam=1.0)
        assert penalty.nearest == "gemm"
        x = rng.normal(size=(9, 6))
        assert np.array_equal(penalty.nearest_points(x), np.repeat(sample, 9, axis=0))

    def test_sample_larger_than_one_block(self, rng, monkeypatch):
        # 8 queries x 1,000 distinct rows at 512 score elements: 64-row
        # blocks, so best and runner-up are merged across sixteen blocks.
        monkeypatch.setattr(coverage, "_SCORE_ELEMENTS", 512)
        sample = flights_shaped(rng, 1_000)
        penalty = CoveragePenalty(sample, lam=0.04)
        assert_nearest_matches_kdtree(penalty, generated_like(rng, sample, 8))
        assert_nearest_matches_kdtree(penalty, sample[::7])  # queries on the sample

    def test_equidistant_queries_pick_the_first_minimiser(self, rng):
        # Small integers: every distance is exact in both implementations,
        # so exact ties between distinct sample rows are certain.  Which
        # minimiser the kd-tree returns depends on its traversal; the
        # kernel's rule is the first distinct row in sorted order.
        sample = rng.integers(0, 4, size=(60, 6)).astype(np.float64)
        x = rng.integers(0, 8, size=(300, 6)) / 2.0
        penalty = CoveragePenalty(sample, lam=1.0)
        assert penalty.nearest == "gemm"
        found = penalty.nearest_points(x)
        _, indices = oracles.kdtree_nearest(sample, x)
        best = squared_distances(x, sample[indices])
        assert np.array_equal(squared_distances(x, found), best)
        unique = np.unique(sample, axis=0)
        all_distances = ((x[:, None, :] - unique[None, :, :]) ** 2).sum(axis=2)
        assert (np.sum(all_distances == best[:, None], axis=1) > 1).any()
        assert np.array_equal(found, unique[all_distances.argmin(axis=1)])

    def test_product_rounding_cannot_change_the_answer(self, rng):
        # Far from the origin the GEMM score cancels catastrophically:
        # its rounding error (~1e-3) dwarfs the gaps between squared
        # distances (~1e-6), so the slack re-check carries every query.
        sample = 1e6 + rng.normal(scale=1e-3, size=(200, 8))
        x = 1e6 + rng.normal(scale=1e-3, size=(50, 8))
        penalty = CoveragePenalty(sample, lam=1.0)
        assert penalty.nearest == "gemm"
        assert_nearest_matches_kdtree(penalty, x)

    def test_60k_rows_at_the_real_block_size(self, rng):
        sample = flights_shaped(rng, 60_000)
        penalty = CoveragePenalty(sample, lam=0.04)
        assert penalty.nearest == "gemm"
        assert 500 * penalty.unique_sample_rows > 20 * coverage._SCORE_ELEMENTS
        assert_nearest_matches_kdtree(penalty, generated_like(rng, sample, 500))


class TestCoverageLoss:
    @pytest.fixture(params=["gemm", "kdtree"])
    def sample(self, request, rng):
        """One sample on each side of the index rule."""
        if request.param == "gemm":
            return flights_shaped(rng, 400)
        return rng.normal(size=(400, 2))

    def test_squared_gradient_bytes_and_loss(self, rng, sample):
        penalty = CoveragePenalty(sample, lam=0.04)
        x = generated_like(rng, sample, 128)
        value, grad = penalty.loss_and_grad(x)
        expected_value, expected_grad = oracles.coverage_loss_and_grad(penalty, x)
        assert grad.tobytes() == expected_grad.tobytes()
        # The one place the value may move: sqrt-then-square against the
        # difference's own sum of squares.
        assert value == pytest.approx(expected_value, rel=1e-12)

    def test_norm_variant_is_index_independent(self, rng, monkeypatch, sample):
        penalty = CoveragePenalty(sample, lam=0.5, squared=False)
        x = generated_like(rng, sample, 128)
        value, grad = penalty.loss_and_grad(x)
        old_value, old_grad = oracles.coverage_loss_and_grad(penalty, x)
        assert value == pytest.approx(old_value, rel=1e-12)
        assert np.allclose(grad, old_grad, rtol=1e-12, atol=0.0)
        # With the kd-tree's index patched in, value and gradient are the
        # same bytes: they are functions of the difference alone.
        monkeypatch.setattr(
            CoveragePenalty,
            "nearest_points",
            lambda self, q: self.sample_points[oracles.kdtree_nearest(self.sample_points, q)[1]],
        )
        patched_value, patched_grad = penalty.loss_and_grad(x)
        assert value == patched_value
        assert grad.tobytes() == patched_grad.tobytes()

    def test_lambda_zero_builds_no_index(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("lam == 0 must not index the sample")

        monkeypatch.setattr(coverage, "cKDTree", forbidden)
        for sample in (rng.normal(size=(500, 2)), flights_shaped(rng, 500)):
            penalty = CoveragePenalty(sample, lam=0.0)
            assert (penalty.nearest, penalty.unique_sample_rows) == ("none", None)
            assert set(vars(penalty)) == {
                "sample_points", "lam", "squared", "nearest", "unique_sample_rows"
            }
            value, grad = penalty.loss_and_grad(sample[:10] + 1.0)
            assert value == 0.0
            assert grad.shape == (10, sample.shape[1]) and not grad.any()
