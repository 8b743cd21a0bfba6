"""The 200-random-query comparison (paper Sec. 5.3, in-text result).

"on the 200 random queries used for parameter selection, when both the
true answer and M-SWG answer are not-empty ..., all of our M-SWG models
achieve a lower query error than Unif. IPF also achieves a lower error
than Unif."

This driver issues N random template queries (the queries-1-4 shape with
random attributes/comparators/thresholds) over the flights workload and
scores Unif, IPF, and M-SWG with the paper's not-empty filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.harness import ExperimentResult
from repro.generative.mswg import MSWG, MswgConfig
from repro.generative.streams import repetition_streams
from repro.metrics.error import average_percent_difference
from repro.metrics.summary import boxplot_stats
from repro.reweight.ipf import ipf_reweight
from repro.reweight.weights import uniform_weights
from repro.workloads.flights import (
    FlightsConfig,
    bucket_flights,
    flights_marginals,
    make_biased_flights_sample,
    make_flights_population,
)
from repro.workloads.queries import random_template_queries


@dataclass
class RandomQueriesConfig:
    flights: FlightsConfig = field(default_factory=FlightsConfig)
    mswg: MswgConfig = field(
        default_factory=lambda: MswgConfig(
            hidden_layers=5,
            hidden_units=50,
            latent_dim=None,
            lambda_coverage=1e-7,
            num_projections=1000,
            batch_size=500,
            epochs=80,
            seed=0,
        )
    )
    num_queries: int = 200
    generated_samples: int = 5
    seed: int = 0


def quick_config() -> RandomQueriesConfig:
    return RandomQueriesConfig(
        flights=FlightsConfig(rows=30_000),
        mswg=MswgConfig(
            hidden_layers=3,
            hidden_units=48,
            latent_dim=None,
            lambda_coverage=1e-7,
            num_projections=96,
            batch_size=256,
            epochs=40,
            steps_per_epoch=10,
            seed=0,
        ),
        num_queries=80,
        generated_samples=3,
    )


def paper_config() -> RandomQueriesConfig:
    return RandomQueriesConfig(flights=FlightsConfig.paper_scale())


def run(config: RandomQueriesConfig | None = None) -> ExperimentResult:
    config = config or RandomQueriesConfig()
    rng = np.random.default_rng(config.seed)

    population = make_flights_population(config.flights, rng)
    sample, _, _ = make_biased_flights_sample(population, config.flights, rng)
    marginals = flights_marginals(population, config.flights)
    n_population = population.num_rows

    unif_weights = uniform_weights(sample.num_rows, n_population)
    ipf_weights = ipf_reweight(
        bucket_flights(sample, config.flights), marginals, max_iterations=100
    ).weights

    model = MSWG(config.mswg)
    model.fit(sample, marginals)
    generated = [
        model.generate(sample.num_rows, rng=stream)
        for stream in repetition_streams(
            np.random.default_rng(config.seed + 1), config.generated_samples
        )
    ]
    generated_weights = uniform_weights(sample.num_rows, n_population)

    queries = random_template_queries(
        np.random.default_rng(config.seed + 2), config.num_queries
    )
    errors: dict[str, list[float]] = {"Unif": [], "IPF": [], "M-SWG": []}
    answered = 0
    for query in queries:
        truth = query.evaluate(population)
        if not truth:
            continue
        mswg_answers = [query.evaluate(g, generated_weights) for g in generated]
        if not all(mswg_answers) or any(() not in a for a in mswg_answers):
            continue  # the paper's not-empty filter
        answered += 1
        mswg_combined = {
            (): float(np.mean([a[()] for a in mswg_answers]))
        }
        for method, answer in (
            ("Unif", query.evaluate(sample, unif_weights)),
            ("IPF", query.evaluate(sample, ipf_weights)),
            ("M-SWG", mswg_combined),
        ):
            error = average_percent_difference(answer, truth)
            if error is not None and np.isfinite(error):
                errors[method].append(error)

    rows = []
    for method in ("Unif", "IPF", "M-SWG"):
        stats = boxplot_stats(errors[method])
        rows.append({"method": method, **stats.as_row()})

    result = ExperimentResult(
        experiment_id="random_queries",
        title=f"{config.num_queries} random template queries (not-empty filtered)",
        rows=rows,
        params={
            "rows": config.flights.rows,
            "answered": answered,
            "epochs": config.mswg.epochs,
        },
    )
    unif_mean = next(r["mean"] for r in rows if r["method"] == "Unif")
    ipf_mean = next(r["mean"] for r in rows if r["method"] == "IPF")
    mswg_mean = next(r["mean"] for r in rows if r["method"] == "M-SWG")
    result.add_section(
        "paper property check",
        "\n".join(
            [
                f"IPF < Unif: {ipf_mean:.2f} < {unif_mean:.2f} -> "
                + ("HOLDS" if ipf_mean < unif_mean else "VIOLATED"),
                f"M-SWG < Unif: {mswg_mean:.2f} < {unif_mean:.2f} -> "
                + ("HOLDS" if mswg_mean < unif_mean else "VIOLATED"),
            ]
        ),
    )
    return result
