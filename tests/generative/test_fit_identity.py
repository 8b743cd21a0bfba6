"""A whole ``MSWG.fit`` on the production kernels against the same fit
with the replaced code (``oracles``) patched in: the fitted network must
be byte-equal, the loss trace equal to 1e-12 relative (the coverage
value is computed from the difference now — see ``losses/coverage.py``),
and generation from either model must decode the same relation.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from repro.catalog.metadata import Marginal
from repro.generative.losses import CoveragePenalty, coverage
from repro.generative.mswg import MSWG, MswgConfig
from repro.generative.nn.batchnorm import BatchNorm1d
from repro.relational.relation import Relation
from repro.workloads.flights import (
    MARGINAL_PAIRS,
    FlightsConfig,
    bucket_flights,
    flights_marginals,
    make_biased_flights_sample,
    make_flights_population,
)
from repro.workloads.spiral import (
    SpiralConfig,
    make_biased_spiral_sample,
    make_spiral_population,
    spiral_marginals,
)


def flights_case():
    """One-hot carrier + four numeric columns, the four 2-D marginals."""
    config = FlightsConfig(rows=8_000)
    rng = np.random.default_rng(5)
    raw = make_flights_population(config, rng)
    sample, _, _ = make_biased_flights_sample(bucket_flights(raw, config), config, rng)
    model_config = MswgConfig(
        hidden_layers=2, hidden_units=24, latent_dim=None, num_projections=32,
        batch_size=100, epochs=4, seed=3,
    )
    return sample, flights_marginals(raw, config), model_config, "gemm"


def spiral_case():
    """Two numeric columns, two 1-D marginals: quantile terms + kd-tree."""
    config = SpiralConfig(population_size=6_000, sample_size=600)
    rng = np.random.default_rng(6)
    population = make_spiral_population(config, rng)
    sample, _ = make_biased_spiral_sample(population, config, rng)
    model_config = MswgConfig(
        hidden_layers=2, hidden_units=24, latent_dim=2, batch_size=100, epochs=4, seed=3,
    )
    return sample, spiral_marginals(population, config), model_config, "kdtree"


def network_bytes(model: MSWG) -> bytes:
    """Everything generation reads: parameters and BatchNorm running stats."""
    parts = [parameter.value.tobytes() for parameter in model.network.parameters()]
    for layer in model.network.layers:
        if isinstance(layer, BatchNorm1d):
            parts += [layer.running_mean.tobytes(), layer.running_var.tobytes()]
    return b"".join(parts)


@pytest.fixture(scope="module", params=[flights_case, spiral_case], ids=["flights", "spiral"])
def fitted_pair(request):
    sample, marginals, config, nearest = request.param()
    production = MSWG(config)
    production.fit(sample, marginals)
    assert production.fit_report["nearest"] == nearest
    with pytest.MonkeyPatch.context() as monkeypatch:
        oracles.patched_in(monkeypatch)
        reference = MSWG(config)
        reference.fit(sample, marginals)
    return production, reference


def test_fit_is_byte_identical_to_the_replaced_kernels(fitted_pair):
    production, reference = fitted_pair
    assert network_bytes(production) == network_bytes(reference)
    assert production.history.losses() == pytest.approx(
        reference.history.losses(), rel=1e-12, abs=0.0
    )
    # Only the coverage value may move at all; every W / SW term is equal.
    for name in production.history.epochs[-1].term_losses:
        if name != "coverage":
            assert production.history.term_trace(name) == reference.history.term_trace(name)


def test_generate_decodes_the_same_relation(fitted_pair):
    production, reference = fitted_pair
    ours = production.generate(700, rng=np.random.default_rng(9))
    theirs = reference.generate(700, rng=np.random.default_rng(9))
    assert ours.column_names == theirs.column_names
    for name in ours.column_names:
        assert np.array_equal(ours.column(name), theirs.column(name))


def test_fit_on_a_60k_row_sample_keeps_the_gemm_scratch_to_one_block(monkeypatch):
    """Two steps on a 60k-row flights-shaped sample.  The full score
    matrix would be 500 x ~60k doubles (240 MB); what a nearest-sample
    call may allocate is one block of it."""
    rng = np.random.default_rng(8)
    rows = 60_000
    sample = Relation.from_dict(
        {
            "carrier": rng.choice([f"C{i:02d}" for i in range(14)], size=rows).tolist(),
            "taxi_out": rng.integers(0, 60, size=rows),
            "taxi_in": rng.integers(0, 40, size=rows),
            "elapsed_time": rng.integers(30, 500, size=rows),
            "distance": rng.integers(50, 3000, size=rows),
        }
    )
    marginals = [Marginal.from_data(sample, list(pair)) for pair in MARGINAL_PAIRS]

    peaks = []
    nearest_points = CoveragePenalty.nearest_points

    def traced(self, x):
        tracemalloc.start()
        try:
            return nearest_points(self, x)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(CoveragePenalty, "nearest_points", traced)
    model = MSWG(
        MswgConfig(
            hidden_layers=1, hidden_units=16, latent_dim=None, num_projections=8,
            batch_size=500, epochs=1, steps_per_epoch=2,
        )
    )
    history = model.fit(sample, marginals)
    assert np.isfinite(history.final_loss)
    report = model.fit_report
    assert (report["steps"], report["epochs"], report["nearest"]) == (2, 1, "gemm")
    block_bytes = coverage._SCORE_ELEMENTS * 8
    assert 500 * report["unique_sample_rows"] * 8 > 20 * block_bytes
    assert len(peaks) == 2 and max(peaks) < block_bytes + (1 << 20)
