"""The marginal-constrained sliced-Wasserstein generator (paper Sec. 5).

``MSWG`` learns to generate population-like tuples from (a) a biased
sample and (b) 1-/2-dimensional population marginals, with no
discriminator network:

- each 1-D marginal over a width-1 (numeric) attribute contributes an
  exact quantile-matching Wasserstein term;
- each marginal touching a one-hot block (categorical attribute, or any
  2-D marginal) contributes a sliced-Wasserstein term over random unit
  projections of the block's encoded coordinates;
- a λ-weighted nearest-sample L2 penalty keeps generated points on the
  sample's manifold (Sample Coverage assumption);
- attributes no marginal covers get 1-D marginals *from the sample* added
  (Sec. 5.2: the model otherwise could not learn even the sample
  distribution of those attributes).

Usage::

    config = MswgConfig(hidden_layers=3, hidden_units=100, latent_dim=2,
                        lambda_coverage=0.04, batch_size=500, epochs=40)
    model = MSWG(config)
    model.fit(sample_relation, marginals)
    generated = model.generate(10_000)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.catalog.metadata import Marginal
from repro.errors import GenerativeModelError
from repro.generative.encoding import TableEncoder
from repro.generative.losses.coverage import CoveragePenalty
from repro.generative.losses.sliced import SlicedMarginalLoss, random_unit_projections
from repro.generative.losses.wasserstein import QuantileMatchingLoss
from repro.generative.nn.activations import BlockSoftmax, ReLU
from repro.generative.nn.batchnorm import BatchNorm1d
from repro.generative.nn.inference import InferencePlan
from repro.generative.nn.linear import Linear
from repro.generative.nn.sequential import Sequential
from repro.generative.streams import repetition_streams, with_repetition_ids
from repro.generative.training import LossTerm, TrainingHistory, train_generator
from repro.relational.ops import union_all
from repro.relational.relation import Relation


@dataclass(frozen=True)
class MswgConfig:
    """Hyperparameters (paper defaults in comments).

    ``latent_dim=None`` sets ℓ to the encoded input width — the paper's
    flights choice ("the latent dimension ℓ being the same as the input
    dimensionality"); the synthetic spiral uses ℓ=2.
    """

    hidden_layers: int = 3          # spiral: 3, flights: 5
    hidden_units: int = 100         # spiral: 100, flights: 50
    latent_dim: int | None = 2      # spiral: 2, flights: None (input width)
    lambda_coverage: float = 0.04   # spiral: 0.04, flights: 1e-7
    num_projections: int = 100      # flights: 1000
    batch_size: int = 500
    epochs: int = 40                # flights: 80
    learning_rate: float = 1e-3
    batch_norm: bool = True
    lr_factor: float = 0.1
    lr_patience: int = 5
    power: int = 2                  # training surrogate: W2²-style matching
    coverage_squared: bool = True
    steps_per_epoch: int | None = None  # default: ceil(sample rows / batch)
    seed: int = 0


def _doubling_ranges(n: int, first: int) -> Iterator[tuple[int, int]]:
    """``[start, stop)`` ranges covering ``n`` rows: ``first`` rows, then
    twice the previous range each time (the last one cut at ``n``)."""
    start, size = 0, first
    while start < n:
        yield start, min(start + size, n)
        start, size = start + size, size * 2


def _single_column_term(loss: QuantileMatchingLoss):
    """Adapt a 1-D quantile loss to the (n, 1) block interface."""

    def compute(block: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = loss.loss_and_grad(block[:, 0])
        return value, grad[:, None]

    return compute


class MSWG:
    """Marginal-constrained sliced-Wasserstein generator."""

    def __init__(self, config: MswgConfig | None = None):
        self.config = config or MswgConfig()
        self.encoder: TableEncoder | None = None
        self.network: Sequential | None = None
        self.history: TrainingHistory | None = None
        self._latent_dim: int | None = None
        self._rng = np.random.default_rng(self.config.seed)

    #: The network compiled for generation, built on first use.  A class
    #: default, so models pickled before the plan existed load without it.
    _plan: InferencePlan | None = None

    #: What the last ``fit`` in this process did — ``steps``, ``epochs``,
    #: ``unique_sample_rows``, ``nearest`` (the coverage index: ``"gemm"``,
    #: ``"kdtree"`` or ``"none"``) — for the engine's ``open.fit`` span.
    #: Not persisted: a restored model was not fitted here.
    fit_report: dict | None = None

    def __getstate__(self) -> dict:
        """Persist parameters, not generation state: the plan and its
        buffers, or the ``(R·n, width)`` scratch older pickles carry."""
        state = self.__dict__.copy()
        state.pop("_plan", None)
        state.pop("fit_report", None)
        state.pop("_scratch_buffers", None)
        return state

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    def fit(
        self,
        sample: Relation,
        marginals: list[Marginal],
        sample_weights: np.ndarray | None = None,
        categorical_columns: set[str] | None = None,
    ) -> TrainingHistory:
        """Train the generator from a sample and population marginals.

        ``sample_weights`` (optional) weight the sample-derived fallback
        marginals for uncovered attributes; the coverage penalty always
        uses the raw sample points (coverage is about support, not mass).
        """
        if sample.num_rows == 0:
            raise GenerativeModelError("cannot fit a generator on an empty sample")
        if not marginals:
            raise GenerativeModelError(
                "M-SWG needs at least one population marginal (Sec. 5.2)"
            )
        config = self.config
        self.encoder = TableEncoder.fit(
            sample, marginals, categorical_columns=categorical_columns
        )
        encoded_sample = self.encoder.transform(sample)

        all_marginals = list(marginals) + self._fallback_marginals(
            sample, marginals, sample_weights
        )
        terms, coverage = self._build_terms(all_marginals, encoded_sample)

        width = self.encoder.width
        self._latent_dim = config.latent_dim if config.latent_dim is not None else width
        self.network = self._build_network(self._latent_dim, width)
        self._plan = None

        steps = config.steps_per_epoch
        if steps is None:
            steps = max(1, int(np.ceil(sample.num_rows / config.batch_size)))

        self.history = train_generator(
            self.network,
            latent_dim=self._latent_dim,
            terms=terms,
            rng=self._rng,
            batch_size=config.batch_size,
            epochs=config.epochs,
            steps_per_epoch=steps,
            learning_rate=config.learning_rate,
            lr_factor=config.lr_factor,
            lr_patience=config.lr_patience,
        )
        self.fit_report = {
            "steps": config.epochs * steps,
            "epochs": config.epochs,
            "unique_sample_rows": coverage.unique_sample_rows,
            "nearest": coverage.nearest,
        }
        return self.history

    def _fallback_marginals(
        self,
        sample: Relation,
        marginals: list[Marginal],
        sample_weights: np.ndarray | None,
    ) -> list[Marginal]:
        """Sample-derived 1-D marginals for attributes no marginal covers."""
        covered: set[str] = set()
        for marginal in marginals:
            covered.update(marginal.attributes)
        fallbacks = []
        for name in sample.column_names:
            if name not in covered:
                fallbacks.append(
                    Marginal.from_data(
                        sample, [name], weights=sample_weights, name=f"sample:{name}"
                    )
                )
        return fallbacks

    def _build_terms(
        self, marginals: list[Marginal], encoded_sample: np.ndarray
    ) -> tuple[list[LossTerm], CoveragePenalty]:
        assert self.encoder is not None
        config = self.config
        terms: list[LossTerm] = []
        for marginal in marginals:
            attributes = list(marginal.attributes)
            columns = self.encoder.block_indices(attributes)
            points, masses = self._encode_marginal(marginal)
            label = marginal.name or "x".join(attributes)
            if columns.shape[0] == 1:
                loss = QuantileMatchingLoss(
                    points[:, 0], masses, config.batch_size, power=config.power
                )
                terms.append(
                    LossTerm(
                        name=f"W[{label}]",
                        columns=columns,
                        compute=_single_column_term(loss),
                    )
                )
            else:
                projections = random_unit_projections(
                    self._rng, columns.shape[0], config.num_projections
                )
                loss = SlicedMarginalLoss(
                    points, masses, projections, config.batch_size, power=config.power
                )
                terms.append(
                    LossTerm(
                        name=f"SW[{label}]",
                        columns=columns,
                        compute=loss.loss_and_grad,
                    )
                )
        coverage = CoveragePenalty(
            encoded_sample, config.lambda_coverage, squared=config.coverage_squared
        )
        terms.append(
            LossTerm(
                name="coverage",
                columns=np.arange(self.encoder.width),
                compute=coverage.loss_and_grad,
            )
        )
        return terms, coverage

    def _encode_marginal(self, marginal: Marginal) -> tuple[np.ndarray, np.ndarray]:
        """Marginal cells as points in the encoded block coordinates."""
        assert self.encoder is not None
        points = []
        masses = []
        for key, mass in marginal.cells():
            pieces = [
                self.encoder.encode_value(attribute, value)
                for attribute, value in zip(marginal.attributes, key)
            ]
            points.append(np.concatenate(pieces))
            masses.append(mass)
        return np.asarray(points), np.asarray(masses)

    def _build_network(self, latent_dim: int, width: int) -> Sequential:
        config = self.config
        layers: list = []
        in_features = latent_dim
        for i in range(config.hidden_layers):
            layers.append(
                Linear(in_features, config.hidden_units, self._rng, name=f"fc{i}")
            )
            if config.batch_norm:
                layers.append(BatchNorm1d(config.hidden_units, name=f"bn{i}"))
            layers.append(ReLU())
            in_features = config.hidden_units
        layers.append(Linear(in_features, width, self._rng, init="xavier", name="out"))
        softmax_blocks = self.encoder.softmax_blocks() if self.encoder else []
        if softmax_blocks:
            layers.append(BlockSoftmax(softmax_blocks))
        return Sequential(*layers)

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #

    def generate(
        self,
        n: int,
        rng: np.random.Generator | None = None,
        until: Callable[[Relation], bool] | None = None,
    ) -> Relation:
        """Sample ``n`` synthetic population tuples.

        Categorical one-hot blocks decode to exact category values by
        argmax (the paper only forces binary output at generation time).

        ``until`` makes the result a *prefix* of the ``n``-row sample.  The
        latents of all ``n`` rows are still drawn in one call, so ``rng``
        advances exactly as without it; they are then decoded in
        consecutive row ranges — one :attr:`InferencePlan.CHUNK_ROWS` chunk,
        then doubling — and ``until`` sees each decoded range in order.
        Generation stops after the first range for which it returns true.
        The plan multiplies one fixed chunk shape and decoding is row by
        row, so the prefix is the first rows of the full sample, bit for
        bit, and no row is decoded twice.
        """
        self._check_generate(n)
        rng = rng if rng is not None else self._rng
        latents = rng.normal(size=(n, self._latent_dim))
        if until is None:
            return self._decode_latents(latents)
        ranges = []
        for start, stop in _doubling_ranges(n, InferencePlan.CHUNK_ROWS):
            ranges.append(self._decode_latents(latents[start:stop]))
            if until(ranges[-1]):
                break
        return union_all(ranges)

    def generate_batch(
        self,
        n: int,
        repetitions: int,
        rng: np.random.Generator | None = None,
    ) -> Relation:
        """``repetitions`` independent samples of ``n`` rows in one pass.

        Each repetition's latents come from its own spawned RNG stream
        (the OPEN per-repetition stream contract); the stacked
        ``(R*n, latent)`` matrix then runs through the compiled plan.  The
        plan is row-wise and always multiplies the same chunk shape, so
        the output rows are bit-identical to ``repetitions`` serial
        ``generate`` calls; the result carries the dense ``__rep__``
        column batched OPEN execution keys on.
        """
        streams = repetition_streams(
            rng if rng is not None else self._rng, repetitions
        )
        return self.generate_batch_streams(n, streams)

    def generate_batch_streams(
        self, n: int, streams: list[np.random.Generator]
    ) -> Relation:
        """One chunk of repetitions, each drawn from its given stream.

        The chunked sibling of :meth:`generate_batch`: callers slice a
        pre-spawned stream list (``streams[start:stop]``), so a chunked
        generation draws exactly the values the monolithic batch would —
        chunking never changes per-repetition randomness.  The local
        ``__rep__`` ids are 0-based within the chunk.
        """
        self._check_generate(n)
        if not streams:
            raise GenerativeModelError("need at least one repetition stream")
        latents = np.empty((len(streams) * n, self._latent_dim))
        for index, stream in enumerate(streams):
            latents[index * n : (index + 1) * n] = stream.normal(
                size=(n, self._latent_dim)
            )
        return with_repetition_ids(self._decode_latents(latents), len(streams))

    def _check_generate(self, n: int) -> None:
        if self.network is None or self.encoder is None:
            raise GenerativeModelError("generate() before fit()")
        if n <= 0:
            raise GenerativeModelError(f"need a positive sample size, got {n}")

    def _predecode(self, latents: np.ndarray) -> np.ndarray:
        """Latents → the ``(rows, width)`` matrix the encoder decodes.

        Runs the compiled plan (BatchNorm folded, softmax dropped — see
        :mod:`repro.generative.nn.inference`), built on first use after a
        fit or an unpickle.  The training layers are not touched: no
        activation caches, no train/eval toggling.
        """
        assert self.network is not None
        if self._plan is None:
            self._plan = InferencePlan(self.network)
        return self._plan.run(latents)

    def _decode_latents(self, latents: np.ndarray) -> Relation:
        """Latents → tuples.  ``inverse_transform`` derives fresh arrays
        (clips, argmax picks), so the relation never aliases plan buffers."""
        assert self.encoder is not None
        return self.encoder.inverse_transform(self._predecode(latents))
