"""Figure 7: Unif vs IPF vs M-SWG on the flights queries (Table 2).

Left panel: continuous queries 1–4.  Right panel: categorical group-by
queries 5–8.  Methods:

- **Unif** — the biased sample uniformly reweighted to the population
  size (standard AQP with no bias knowledge).
- **IPF** — tuple raking against the four 2-D marginals
  (C,E), (O,E), (I,E), (D,E); Mosaic's SEMI-OPEN technique.
- **M-SWG** — 10 generated samples, uniformly reweighted, groups kept if
  present in all answers, aggregates averaged; Mosaic's OPEN technique.

Expected shape (paper Sec. 5.3): every method ≤ ~25 % on continuous
queries; M-SWG lowest on average but *worst* on query 1 (the predicate
aligned with the sampling bias, where the raw sample is already right);
on categorical queries M-SWG degrades for rare carriers — query 8 (US,
F9) yields large errors or missing groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.ascii_plot import ascii_bars
from repro.experiments.harness import ExperimentResult
from repro.generative.mswg import MSWG, MswgConfig
from repro.generative.streams import repetition_streams
from repro.metrics.error import average_percent_difference
from repro.relational.relation import Relation
from repro.reweight.ipf import ipf_reweight
from repro.reweight.weights import uniform_weights
from repro.workloads.flights import (
    FlightsConfig,
    bucket_flights,
    flights_marginals,
    make_biased_flights_sample,
    make_flights_population,
)
from repro.workloads.queries import AggregateQuery, paper_flights_queries


@dataclass
class Figure7Config:
    flights: FlightsConfig = field(default_factory=FlightsConfig)
    # Paper's final flights parameters: lambda=1e-7, p=1000 projections,
    # 5 layers x 50 nodes, batch 500, latent = input width (None).
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
    generated_samples: int = 10
    queries: str = "continuous"  # "continuous" (1-4) or "categorical" (5-8)
    seed: int = 0


def quick_config(queries: str = "continuous") -> Figure7Config:
    return Figure7Config(
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
        generated_samples=5,
        queries=queries,
    )


def paper_config(queries: str = "continuous") -> Figure7Config:
    return Figure7Config(flights=FlightsConfig.paper_scale(), queries=queries)


def run(config: Figure7Config | None = None) -> ExperimentResult:
    config = config or Figure7Config()
    rng = np.random.default_rng(config.seed)

    population = make_flights_population(config.flights, rng)
    sample, _, _ = make_biased_flights_sample(population, config.flights, rng)
    marginals = flights_marginals(population, config.flights)
    n_population = population.num_rows

    queries = paper_flights_queries()
    if config.queries == "continuous":
        selected = [q for q in queries if q.group_by is None]
    elif config.queries == "categorical":
        selected = [q for q in queries if q.group_by is not None]
    else:
        selected = queries

    # --- Unif: uniform reweighting, no bias knowledge. -------------------
    unif_weights = uniform_weights(sample.num_rows, n_population)

    # --- IPF: rake the bucketed sample against the marginals. ------------
    ipf_result = ipf_reweight(
        bucket_flights(sample, config.flights), marginals, max_iterations=100
    )
    ipf_weights = ipf_result.weights

    # --- M-SWG: generate, uniformly reweight, combine. --------------------
    model = MSWG(config.mswg)
    model.fit(sample, marginals)
    generated = [
        model.generate(sample.num_rows, rng=stream)
        for stream in repetition_streams(
            np.random.default_rng(config.seed + 1), config.generated_samples
        )
    ]

    rows = []
    per_method_errors: dict[str, list[float]] = {"Unif": [], "IPF": [], "M-SWG": []}
    for query in selected:
        truth = query.evaluate(population)
        estimates = {
            "Unif": query.evaluate(sample, unif_weights),
            "IPF": query.evaluate(sample, ipf_weights),
            "M-SWG": _mswg_answer(query, generated, n_population),
        }
        row: dict = {"query": query.query_id, "sql": query.to_sql()}
        for method, answer in estimates.items():
            error = average_percent_difference(answer, truth, policy="common")
            row[method] = float("nan") if error is None else error
            if error is not None:
                per_method_errors[method].append(error)
            if query.group_by is not None:
                row[f"{method}_groups"] = f"{len(set(answer) & set(truth))}/{len(truth)}"
        rows.append(row)

    result = ExperimentResult(
        experiment_id=f"figure7_{config.queries}",
        title=(
            "Avg % difference on flights queries "
            f"({'1-4 continuous' if config.queries == 'continuous' else '5-8 categorical'})"
        ),
        rows=rows,
        params={
            "rows": config.flights.rows,
            "sample_rows": sample.num_rows,
            "generated_samples": config.generated_samples,
            "epochs": config.mswg.epochs,
            "projections": config.mswg.num_projections,
            "ipf_converged": ipf_result.converged,
        },
    )
    for method, errors in per_method_errors.items():
        if errors:
            result.params[f"mean_{method}"] = round(float(np.mean(errors)), 3)
    labels = [f"q{row['query']} {m}" for row in rows for m in ("Unif", "IPF", "M-SWG")]
    values = [
        0.0 if np.isnan(row[m]) else row[m]
        for row in rows
        for m in ("Unif", "IPF", "M-SWG")
    ]
    result.add_section("per-query errors", ascii_bars(labels, values))
    return result


def _mswg_answer(
    query: AggregateQuery, generated: list[Relation], n_population: int
) -> dict[tuple, float]:
    """Combine per-generation answers: intersect groups, average values."""
    answers = []
    for relation in generated:
        weights = uniform_weights(relation.num_rows, n_population)
        answers.append(query.evaluate(relation, weights))
    if not answers:
        return {}
    common = set(answers[0])
    for answer in answers[1:]:
        common &= set(answer)
    return {
        key: float(np.mean([answer[key] for answer in answers])) for key in common
    }
