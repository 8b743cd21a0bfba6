"""End-to-end tests for the M-SWG generator on small problems."""

import pickle

import numpy as np
import pytest

from repro.catalog.metadata import Marginal
from repro.errors import GenerativeModelError
from repro.generative.losses import wasserstein_1d
from repro.generative.mswg import MSWG, MswgConfig
from repro.generative.nn.inference import InferencePlan
from repro.generative.streams import repetition_streams
from repro.relational.relation import Relation


def quick_config(**overrides):
    base = dict(
        hidden_layers=2,
        hidden_units=32,
        latent_dim=2,
        lambda_coverage=0.01,
        num_projections=24,
        batch_size=128,
        epochs=12,
        steps_per_epoch=8,
        seed=0,
    )
    base.update(overrides)
    return MswgConfig(**base)


@pytest.fixture(scope="module")
def gaussian_case():
    """Biased 1-D sample vs a shifted population marginal."""
    rng = np.random.default_rng(0)
    population = rng.normal(loc=2.0, scale=1.0, size=4000)
    biased_sample = population[population > 1.5][:600]  # heavy right bias
    sample_rel = Relation.from_dict({"x": biased_sample})
    marginal = Marginal.from_data(
        Relation.from_dict({"x": np.round(population, 1)}), ["x"]
    )
    return sample_rel, marginal, population


class TestFitValidation:
    def test_empty_sample_rejected(self):
        empty = Relation.from_dict({"x": np.array([], dtype=float)})
        with pytest.raises(GenerativeModelError, match="empty sample"):
            MSWG(quick_config()).fit(empty, [Marginal(["x"], {(1.0,): 1})])

    def test_no_marginals_rejected(self):
        rel = Relation.from_dict({"x": [1.0, 2.0]})
        with pytest.raises(GenerativeModelError, match="at least one"):
            MSWG(quick_config()).fit(rel, [])

    def test_generate_before_fit_rejected(self):
        with pytest.raises(GenerativeModelError, match="before fit"):
            MSWG(quick_config()).generate(10)

    def test_generate_nonpositive_rejected(self, gaussian_case):
        sample_rel, marginal, _ = gaussian_case
        model = MSWG(quick_config(epochs=1, steps_per_epoch=1))
        model.fit(sample_rel, [marginal])
        with pytest.raises(GenerativeModelError):
            model.generate(0)


class TestTrainingDynamics:
    def test_loss_decreases(self, gaussian_case):
        sample_rel, marginal, _ = gaussian_case
        model = MSWG(quick_config())
        history = model.fit(sample_rel, [marginal])
        losses = history.losses()
        assert losses[-1] < losses[0]

    def test_history_terms_present(self, gaussian_case):
        sample_rel, marginal, _ = gaussian_case
        model = MSWG(quick_config(epochs=2))
        history = model.fit(sample_rel, [marginal])
        record = history.epochs[-1]
        assert any(name.startswith("W[") for name in record.term_losses)
        assert "coverage" in record.term_losses

    def test_deterministic_given_seed(self, gaussian_case):
        sample_rel, marginal, _ = gaussian_case
        a = MSWG(quick_config(epochs=3))
        b = MSWG(quick_config(epochs=3))
        a.fit(sample_rel, [marginal])
        b.fit(sample_rel, [marginal])
        ga = a.generate(50, rng=np.random.default_rng(1))
        gb = b.generate(50, rng=np.random.default_rng(1))
        assert np.allclose(ga.column("x"), gb.column("x"))


class TestDebiasing:
    def test_generated_marginal_closer_than_biased_sample(self, gaussian_case):
        """The headline claim: M-SWG output fits the population marginal
        better than the biased sample does."""
        sample_rel, marginal, population = gaussian_case
        model = MSWG(quick_config(epochs=25, steps_per_epoch=10))
        model.fit(sample_rel, [marginal])
        generated = model.generate(1500, rng=np.random.default_rng(5))

        w_generated = wasserstein_1d(generated.column("x"), population)
        w_sample = wasserstein_1d(sample_rel.column("x"), population)
        assert w_generated < w_sample * 0.5

    def test_generates_values_absent_from_sample(self, gaussian_case):
        """OPEN-world behaviour: mass below the bias cutoff reappears."""
        sample_rel, marginal, _ = gaussian_case
        model = MSWG(quick_config(epochs=25, steps_per_epoch=10))
        model.fit(sample_rel, [marginal])
        generated = model.generate(1500, rng=np.random.default_rng(6))
        sample_min = sample_rel.column("x").min()
        assert np.mean(generated.column("x") < sample_min) > 0.1


class TestCategorical:
    @pytest.fixture(scope="class")
    def categorical_case(self):
        rng = np.random.default_rng(3)
        # Sample sees mostly 'a'; population is split a/b/c.
        sample = Relation.from_dict(
            {
                "tag": rng.choice(["a", "b"], size=400, p=[0.9, 0.1]).tolist(),
                "v": rng.normal(size=400),
            }
        )
        marginal = Marginal(["tag"], {("a",): 400, ("b",): 400, ("c",): 200})
        return sample, marginal

    def test_one_hot_output_hardened(self, categorical_case):
        sample, marginal = categorical_case
        model = MSWG(quick_config(epochs=6))
        model.fit(sample, [marginal])
        generated = model.generate(300, rng=np.random.default_rng(4))
        assert set(generated.column("tag").tolist()) <= {"a", "b", "c"}

    def test_unseen_category_generable(self, categorical_case):
        """'c' never occurs in the sample; the marginal demands 20% of it."""
        sample, marginal = categorical_case
        model = MSWG(quick_config(epochs=30, steps_per_epoch=10, lambda_coverage=0.0))
        model.fit(sample, [marginal])
        generated = model.generate(600, rng=np.random.default_rng(4))
        share_c = np.mean([t == "c" for t in generated.column("tag")])
        assert share_c > 0.02  # light hitters are hard (paper Sec. 5.3) but present

    def test_uncovered_attribute_gets_sample_marginal(self, categorical_case):
        sample, marginal = categorical_case
        model = MSWG(quick_config(epochs=2))
        history = model.fit(sample, [marginal])
        assert any("sample:v" in name for name in history.epochs[-1].term_losses)


class TestRepetitionStreams:
    def test_repetitions(self, gaussian_case):
        sample_rel, marginal, _ = gaussian_case
        model = MSWG(quick_config(epochs=2))
        model.fit(sample_rel, [marginal])
        outs = [
            model.generate(100, rng=stream)
            for stream in repetition_streams(np.random.default_rng(9), 3)
        ]
        assert all(o.num_rows == 100 for o in outs)
        # Independent draws differ.
        assert not np.allclose(outs[0].column("x"), outs[1].column("x"))


def _relations_equal(left: Relation, right: Relation) -> bool:
    return left.column_names == right.column_names and all(
        np.array_equal(left.column(name), right.column(name))
        for name in left.column_names
    )


def _reference_forward(model: MSWG, latents: np.ndarray) -> np.ndarray:
    """The plan's oracle: the training layers, in eval mode."""
    model.network.eval()
    try:
        return model.network.forward(latents)
    finally:
        model.network.train()


class TestInferencePlan:
    """The compiled plan against its oracle, eval-mode ``network.forward``."""

    CHUNK = InferencePlan.CHUNK_ROWS

    @pytest.fixture(scope="class")
    def mixed_case(self):
        rng = np.random.default_rng(11)
        sample = Relation.from_dict(
            {
                "tag": rng.choice(["a", "b", "c"], size=400, p=[0.6, 0.3, 0.1]).tolist(),
                "v": rng.normal(size=400),
                "k": rng.integers(0, 50, size=400),
            }
        )
        marginal = Marginal(["tag"], {("a",): 300, ("b",): 400, ("c",): 300})
        return sample, marginal

    @pytest.fixture(scope="class")
    def fitted(self, mixed_case):
        sample, marginal = mixed_case
        model = MSWG(quick_config(epochs=4))
        model.fit(sample, [marginal])
        return model

    def test_plan_matches_network_forward(self, fitted):
        latents = np.random.default_rng(2).normal(size=(2 * self.CHUNK + 5, 2))
        planned = fitted._predecode(latents).copy()
        reference = _reference_forward(fitted, latents)
        for encoding in fitted.encoder.columns:
            block = slice(encoding.start, encoding.stop)
            if encoding.kind == "numeric":
                np.testing.assert_allclose(
                    planned[:, block], reference[:, block], rtol=1e-12, atol=1e-14
                )
            else:  # logits vs probabilities: same pick
                assert np.array_equal(
                    planned[:, block].argmax(axis=1), reference[:, block].argmax(axis=1)
                )
        decoded = fitted.encoder.inverse_transform(planned)
        expected = fitted.encoder.inverse_transform(reference)
        assert decoded.column_names == expected.column_names
        assert np.array_equal(decoded.column("tag"), expected.column("tag"))
        assert np.array_equal(decoded.column("k"), expected.column("k"))
        np.testing.assert_allclose(
            decoded.column("v"), expected.column("v"), rtol=1e-12, atol=1e-14
        )

    def test_generation_leaves_no_activation_caches(self, mixed_case):
        sample, marginal = mixed_case
        model = MSWG(quick_config(epochs=1))
        model.fit(sample, [marginal])
        model.generate(3 * self.CHUNK, rng=np.random.default_rng(0))
        for layer in model.network.layers:
            assert getattr(layer, "_cache", None) is None
            assert getattr(layer, "_mask", None) is None
        assert model.network.training

    @pytest.mark.parametrize(
        "n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]
    )
    def test_chunk_invariance(self, fitted, n):
        """A row's bits do not depend on which chunk it lands in."""

        def streams():
            return [np.random.default_rng(seed) for seed in (5, 6, 7)]

        batch = fitted.generate_batch_streams(n, streams())
        for index, stream in enumerate(streams()):
            serial = fitted.generate(n, rng=stream)
            for name in serial.column_names:
                assert np.array_equal(
                    serial.column(name),
                    batch.column(name)[index * n : (index + 1) * n],
                ), (name, index)

    def test_refit_rebuilds_plan(self, mixed_case):
        sample, marginal = mixed_case
        model = MSWG(quick_config(epochs=2))
        model.fit(sample, [marginal])
        first = model.generate(200, rng=np.random.default_rng(1))
        model.fit(sample, [marginal])  # continues the model's own RNG stream
        second = model.generate(200, rng=np.random.default_rng(1))
        assert not np.array_equal(first.column("v"), second.column("v"))
        reference = _reference_forward(
            model, np.random.default_rng(1).normal(size=(200, 2))
        )
        expected = model.encoder.inverse_transform(reference)
        np.testing.assert_allclose(
            second.column("v"), expected.column("v"), rtol=1e-12, atol=1e-14
        )
        assert np.array_equal(second.column("tag"), expected.column("tag"))

    def test_pickle_carries_parameters_not_generation_state(self, mixed_case):
        sample, marginal = mixed_case
        model = MSWG(quick_config(epochs=2))
        model.fit(sample, [marginal])
        before = len(pickle.dumps(model))
        generated = model.generate(20_000, rng=np.random.default_rng(8))
        payload = pickle.dumps(model)
        assert len(payload) <= 2 * before
        restored = pickle.loads(payload)
        assert _relations_equal(
            restored.generate(20_000, rng=np.random.default_rng(8)), generated
        )

    def test_pickle_from_before_the_plan_restores(self, mixed_case):
        """State as the parent commit wrote it: generation scratch and
        eval-forward activation caches kept, no ``_plan``."""
        sample, marginal = mixed_case
        model = MSWG(quick_config(epochs=1))
        model.fit(sample, [marginal])
        fresh = len(pickle.dumps(model))
        generated = model.generate(50, rng=np.random.default_rng(8))
        legacy = dict(model.__dict__)
        del legacy["_plan"]
        legacy["_scratch_buffers"] = {"forward": np.zeros((20_000, 5))}
        legacy["_softmax"] = model.network.layers[-1]
        restored = MSWG.__new__(MSWG)
        restored.__dict__.update(legacy)  # what unpickling does
        restored.network.layers[0]._cache = np.zeros((20_000, 2))
        restored.network.layers[2]._mask = np.zeros((20_000, 32), dtype=bool)
        assert _relations_equal(
            restored.generate(50, rng=np.random.default_rng(8)), generated
        )
        assert len(pickle.dumps(restored)) <= 2 * fresh
