"""Gradient checks and unit tests for the numpy NN substrate.

Every layer's analytic backward pass is verified against central finite
differences, both for input gradients and parameter gradients.
"""

import numpy as np
import pytest

from repro.errors import GenerativeModelError
from repro.generative.nn import (
    BatchNorm1d,
    BlockSoftmax,
    Linear,
    ReLU,
    Sequential,
)
from repro.generative.nn.inference import InferencePlan
from repro.generative.optim import Adam, ReduceLROnPlateau


def numeric_grad_input(module, x, upstream, eps=1e-6):
    """Central finite-difference gradient of sum(out * upstream) w.r.t. x."""
    grad = np.zeros_like(x)
    flat = grad.ravel()
    x_flat = x.ravel()
    for i in range(x_flat.size):
        original = x_flat[i]
        x_flat[i] = original + eps
        up = np.sum(module.forward(x) * upstream)
        x_flat[i] = original - eps
        down = np.sum(module.forward(x) * upstream)
        x_flat[i] = original
        flat[i] = (up - down) / (2 * eps)
    return grad


def numeric_grad_param(module, x, upstream, parameter, eps=1e-6):
    grad = np.zeros_like(parameter.value)
    flat = grad.ravel()
    p_flat = parameter.value.ravel()
    for i in range(p_flat.size):
        original = p_flat[i]
        p_flat[i] = original + eps
        up = np.sum(module.forward(x) * upstream)
        p_flat[i] = original - eps
        down = np.sum(module.forward(x) * upstream)
        p_flat[i] = original
        flat[i] = (up - down) / (2 * eps)
    return grad


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 3, rng)
        out = layer.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)

    def test_input_gradient(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        upstream = rng.normal(size=(5, 3))
        layer.forward(x)
        analytic = layer.backward(upstream)
        numeric = numeric_grad_input(layer, x, upstream)
        assert np.allclose(analytic, numeric, atol=1e-6)

    def test_parameter_gradients(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        upstream = rng.normal(size=(5, 3))
        layer.zero_grad()
        layer.forward(x)
        layer.backward(upstream)
        assert np.allclose(
            layer.weight.grad, numeric_grad_param(layer, x, upstream, layer.weight), atol=1e-6
        )
        assert np.allclose(
            layer.bias.grad, numeric_grad_param(layer, x, upstream, layer.bias), atol=1e-6
        )

    def test_backward_without_forward_raises(self, rng):
        layer = Linear(2, 2, rng)
        with pytest.raises(GenerativeModelError, match="without a matching forward"):
            layer.backward(np.ones((1, 2)))

    def test_unknown_init_rejected(self, rng):
        with pytest.raises(ValueError):
            Linear(2, 2, rng, init="magic")


class TestReLU:
    def test_forward(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 2.0], [0.0, -3.0]]))
        assert out.tolist() == [[0.0, 2.0], [0.0, 0.0]]

    def test_gradient_masks_negatives(self, rng):
        layer = ReLU()
        x = rng.normal(size=(6, 4)) + 0.05  # keep away from the kink
        upstream = rng.normal(size=(6, 4))
        layer.forward(x)
        analytic = layer.backward(upstream)
        numeric = numeric_grad_input(layer, x, upstream)
        assert np.allclose(analytic, numeric, atol=1e-6)


class TestBlockSoftmax:
    def test_rows_sum_to_one_inside_block(self, rng):
        layer = BlockSoftmax([(0, 3)])
        out = layer.forward(rng.normal(size=(4, 5)))
        assert np.allclose(out[:, :3].sum(axis=1), 1.0)
        # Identity outside the block.
        x = rng.normal(size=(4, 5))
        out = layer.forward(x)
        assert np.allclose(out[:, 3:], x[:, 3:])

    def test_gradient(self, rng):
        layer = BlockSoftmax([(0, 3), (3, 5)])
        x = rng.normal(size=(4, 6))
        upstream = rng.normal(size=(4, 6))
        layer.forward(x)
        analytic = layer.backward(upstream)
        numeric = numeric_grad_input(layer, x, upstream)
        assert np.allclose(analytic, numeric, atol=1e-6)

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(GenerativeModelError, match="overlap"):
            BlockSoftmax([(0, 3), (2, 5)])

    def test_empty_block_rejected(self):
        with pytest.raises(GenerativeModelError, match="empty"):
            BlockSoftmax([(3, 3)])


class TestBatchNorm:
    def test_training_output_normalised(self, rng):
        layer = BatchNorm1d(4)
        out = layer.forward(rng.normal(loc=5.0, scale=3.0, size=(64, 4)))
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-8)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_input_gradient_training(self, rng):
        layer = BatchNorm1d(3)
        x = rng.normal(size=(8, 3))
        upstream = rng.normal(size=(8, 3))
        layer.forward(x)
        analytic = layer.backward(upstream)
        numeric = numeric_grad_input(layer, x, upstream)
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_parameter_gradients(self, rng):
        layer = BatchNorm1d(3)
        x = rng.normal(size=(8, 3))
        upstream = rng.normal(size=(8, 3))
        layer.zero_grad()
        layer.forward(x)
        layer.backward(upstream)
        assert np.allclose(
            layer.gamma.grad, numeric_grad_param(layer, x, upstream, layer.gamma), atol=1e-5
        )
        assert np.allclose(
            layer.beta.grad, numeric_grad_param(layer, x, upstream, layer.beta), atol=1e-5
        )

    def test_eval_mode_uses_running_stats(self, rng):
        layer = BatchNorm1d(2, momentum=0.5)
        for _ in range(20):
            layer.forward(rng.normal(loc=2.0, size=(32, 2)))
        layer.eval()
        out = layer.forward(np.full((4, 2), 2.0))
        # Input at the running mean maps near zero.
        assert np.allclose(out, 0.0, atol=0.35)


class TestSequential:
    def test_end_to_end_gradient(self, rng):
        net = Sequential(
            Linear(3, 8, rng),
            BatchNorm1d(8),
            ReLU(),
            Linear(8, 4, rng, init="xavier"),
            BlockSoftmax([(0, 2)]),
        )
        x = rng.normal(size=(10, 3))
        upstream = rng.normal(size=(10, 4))
        net.forward(x)
        analytic = net.backward(upstream)
        numeric = numeric_grad_input(net, x, upstream)
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_train_eval_propagates(self, rng):
        net = Sequential(Linear(2, 2, rng), BatchNorm1d(2))
        net.eval()
        assert all(not layer.training for layer in net.layers)
        net.train()
        assert all(layer.training for layer in net.layers)

    def test_parameters_enumerated(self, rng):
        net = Sequential(Linear(2, 3, rng), BatchNorm1d(3), ReLU(), Linear(3, 1, rng))
        assert len(list(net.parameters())) == 6  # 2x(W,b) + (gamma,beta)


class TestInferencePlan:
    def test_matches_eval_forward_without_batchnorm_or_softmax(self, rng):
        """Unequal hidden widths: no ping-pong buffer can be shared."""
        net = Sequential(
            Linear(3, 8, rng), ReLU(), Linear(8, 5, rng), ReLU(),
            Linear(5, 8, rng), ReLU(), Linear(8, 2, rng, init="xavier"),
        )
        x = rng.normal(size=(InferencePlan.CHUNK_ROWS + 3, 3))
        net.eval()
        np.testing.assert_allclose(InferencePlan(net).run(x), net.forward(x), rtol=1e-12)

    def test_folds_trained_batchnorm_statistics(self, rng):
        net = Sequential(Linear(3, 6, rng), BatchNorm1d(6), ReLU(), Linear(6, 2, rng))
        for _ in range(10):  # move the running statistics off (0, 1)
            net.forward(rng.normal(loc=1.5, scale=2.0, size=(64, 3)))
        net.layers[1].gamma.value[:] = rng.normal(size=6)
        net.layers[1].beta.value[:] = rng.normal(size=6)
        x = rng.normal(size=(7, 3))
        net.eval()
        np.testing.assert_allclose(
            InferencePlan(net).run(x), net.forward(x), rtol=1e-12, atol=1e-14
        )

    @pytest.mark.parametrize(
        "layers",
        [
            lambda rng: [ReLU(), Linear(2, 2, rng)],
            lambda rng: [Linear(2, 2, rng), ReLU(), BatchNorm1d(2)],
            lambda rng: [Linear(2, 2, rng), BlockSoftmax([(0, 2)]), Linear(2, 2, rng)],
        ],
    )
    def test_unsupported_layer_order_rejected(self, rng, layers):
        with pytest.raises(GenerativeModelError, match="cannot compile"):
            InferencePlan(Sequential(*layers(rng)))


class TestAdam:
    def test_minimises_quadratic(self, rng):
        from repro.generative.nn.module import Parameter

        p = Parameter(np.array([5.0, -3.0]))
        optimizer = Adam([p], learning_rate=0.1)
        for _ in range(500):
            p.zero_grad()
            p.grad += 2.0 * p.value  # d/dp ||p||²
            optimizer.step()
        assert np.allclose(p.value, 0.0, atol=1e-3)

    def test_zero_grad(self, rng):
        from repro.generative.nn.module import Parameter

        p = Parameter(np.ones(2))
        p.grad += 5.0
        optimizer = Adam([p])
        optimizer.zero_grad()
        assert np.all(p.grad == 0)


class TestScheduler:
    def make(self, patience=2):
        from repro.generative.nn.module import Parameter

        optimizer = Adam([Parameter(np.zeros(1))], learning_rate=1.0)
        return optimizer, ReduceLROnPlateau(optimizer, factor=0.1, patience=patience)

    def test_decays_after_patience(self):
        optimizer, scheduler = self.make(patience=2)
        scheduler.step(1.0)
        assert not scheduler.step(1.0)  # stale 1
        assert not scheduler.step(1.0)  # stale 2
        assert scheduler.step(1.0)      # stale 3 > patience -> decay
        assert optimizer.learning_rate == pytest.approx(0.1)

    def test_improvement_resets(self):
        optimizer, scheduler = self.make(patience=1)
        scheduler.step(1.0)
        scheduler.step(1.0)
        scheduler.step(0.5)  # improvement
        assert not scheduler.step(0.5)
        assert optimizer.learning_rate == 1.0

    def test_min_lr_floor(self):
        optimizer, scheduler = self.make(patience=0)
        optimizer.learning_rate = 1e-7
        scheduler.step(1.0)
        assert not scheduler.step(1.0)  # cannot go below floor
        assert optimizer.learning_rate == pytest.approx(1e-7)

    def test_bad_factor_rejected(self):
        optimizer, _ = self.make()
        with pytest.raises(ValueError):
            ReduceLROnPlateau(optimizer, factor=1.5)
