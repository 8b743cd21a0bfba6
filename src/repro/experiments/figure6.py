"""Figure 6: Unif vs M-SWG on random 2-D range (box) queries.

Protocol (Sec. 5.3): train M-SWG on the biased spiral sample + the two
1-D marginals; issue 100 random box-count queries per width coverage
(0.1 → 0.8); answer with (a) the uniformly reweighted biased sample and
(b) uniformly reweighted M-SWG samples (averaged over 10 generations);
report the average percent difference as box plots whose whiskers are the
3rd/97th percentiles.

Expected shape: M-SWG beats Unif everywhere except the narrowest boxes,
where both methods suffer from false negatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.harness import ExperimentResult
from repro.generative.mswg import MSWG, MswgConfig
from repro.generative.streams import repetition_streams
from repro.metrics.error import percent_difference
from repro.metrics.summary import boxplot_stats
from repro.reweight.weights import uniform_weights
from repro.workloads.queries import random_box_queries
from repro.workloads.spiral import (
    SpiralConfig,
    make_biased_spiral_sample,
    make_spiral_population,
    spiral_marginals,
)


@dataclass
class Figure6Config:
    spiral: SpiralConfig = field(default_factory=SpiralConfig)
    mswg: MswgConfig = field(
        default_factory=lambda: MswgConfig(
            hidden_layers=3,
            hidden_units=100,
            latent_dim=2,
            lambda_coverage=0.04,
            batch_size=500,
            epochs=60,
            seed=0,
        )
    )
    coverages: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    queries_per_coverage: int = 100
    generated_samples: int = 10
    seed: int = 0


def quick_config() -> Figure6Config:
    return Figure6Config(
        spiral=SpiralConfig(population_size=20_000, sample_size=2_000),
        mswg=MswgConfig(
            hidden_layers=3,
            hidden_units=64,
            latent_dim=2,
            lambda_coverage=0.04,
            batch_size=256,
            epochs=20,
            steps_per_epoch=8,
            seed=0,
        ),
        coverages=(0.1, 0.3, 0.5, 0.8),
        queries_per_coverage=40,
        generated_samples=4,
    )


def paper_config() -> Figure6Config:
    return Figure6Config()


def run(config: Figure6Config | None = None) -> ExperimentResult:
    config = config or Figure6Config()
    rng = np.random.default_rng(config.seed)

    population = make_spiral_population(config.spiral, rng)
    sample, _ = make_biased_spiral_sample(population, config.spiral, rng)
    marginals = spiral_marginals(population, config.spiral)

    model = MSWG(config.mswg)
    model.fit(sample, marginals)
    generated_samples = [
        model.generate(sample.num_rows, rng=stream)
        for stream in repetition_streams(
            np.random.default_rng(config.seed + 1), config.generated_samples
        )
    ]

    n_population = population.num_rows
    unif_weights = uniform_weights(sample.num_rows, n_population)
    generated_weights = uniform_weights(sample.num_rows, n_population)

    rows = []
    query_rng = np.random.default_rng(config.seed + 2)
    for coverage in config.coverages:
        boxes = random_box_queries(
            query_rng, population, coverage, config.queries_per_coverage
        )
        unif_errors: list[float] = []
        mswg_errors: list[float] = []
        for box in boxes:
            truth = box.count(population)
            if truth == 0.0:
                continue  # the paper's not-empty filter
            unif_errors.append(
                percent_difference(box.count(sample, unif_weights), truth)
            )
            per_generation = [
                box.count(generated, generated_weights)
                for generated in generated_samples
            ]
            mswg_errors.append(
                percent_difference(float(np.mean(per_generation)), truth)
            )
        for method, errors in (("Unif", unif_errors), ("M-SWG", mswg_errors)):
            stats = boxplot_stats(errors)
            rows.append(
                {
                    "coverage": coverage,
                    "method": method,
                    **{k: v for k, v in stats.as_row().items()},
                }
            )

    result = ExperimentResult(
        experiment_id="figure6",
        title="Average % difference: Unif vs M-SWG on 2-D box counts",
        rows=rows,
        params={
            "population": config.spiral.population_size,
            "sample": config.spiral.sample_size,
            "queries_per_coverage": config.queries_per_coverage,
            "generated_samples": config.generated_samples,
            "epochs": config.mswg.epochs,
        },
    )
    result.add_section(
        "shape check",
        _shape_summary(rows),
    )
    return result


def _shape_summary(rows: list[dict]) -> str:
    """Who wins per coverage — the property the paper's Fig. 6 shows."""
    lines = []
    coverages = sorted({row["coverage"] for row in rows})
    for coverage in coverages:
        unif = next(
            r["mean"] for r in rows if r["coverage"] == coverage and r["method"] == "Unif"
        )
        mswg = next(
            r["mean"] for r in rows if r["coverage"] == coverage and r["method"] == "M-SWG"
        )
        winner = "M-SWG" if mswg < unif else "Unif"
        lines.append(
            f"coverage {coverage:.1f}: Unif {unif:7.2f}%  M-SWG {mswg:7.2f}%  -> {winner}"
        )
    return "\n".join(lines)
