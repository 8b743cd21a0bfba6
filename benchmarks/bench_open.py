"""Bench: OPEN-world end-to-end latency and per-generator hot paths.

The OPEN pipeline — fit a generator, draw ``repetitions`` synthetic
samples, answer the query on each, combine — is the most expensive path
in the system (paper Sec. 5.3).  This bench tracks it per PR:

- ``open_cold_ms`` — full cold query on the flights workload with the
  Bayesian-network generator: fit (discretise + IPF rake + Chow-Liu +
  CPTs) plus ``repetitions=5`` generations of 30k rows each, batched
  execution, combine.
- ``open_cached_ms`` — same query on a warm generator cache: one
  ``generate_batch`` + one composite-code execution + combine.
- per-generator ``fit_ms`` / ``generate_ms`` at ``repetitions=5`` for all
  three bundled generators (M-SWG uses a deliberately tiny training
  config: the bench tracks the generation/encoding machinery, not
  gradient descent).

``PRE_PR`` pins the same measurements taken at commit c0084e2 (the last
commit before batched OPEN execution landed) on the dev container that
produced the committed baselines, so ``BENCH_open.json`` records the
speedup of the batched single-pass path against the per-repetition loop
it replaced.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import MosaicDB
from repro.engine.open_world import (
    BayesNetGenerator,
    IPFSynthesizer,
    MswgGenerator,
    OpenQueryConfig,
)
from repro.generative.mswg import MswgConfig
from repro.workloads.flights import (
    FlightsConfig,
    bucket_flights,
    flights_marginals,
    make_biased_flights_sample,
    make_flights_population,
)
from repro.workloads.migrants import (
    MigrantsConfig,
    make_migrants_population,
    migrants_marginals,
)

CONFIG = FlightsConfig(rows=30_000)
REPETITIONS = 5
GENERATION_ROWS = 30_000  # population-scale generation (light hitters survive)
OPEN_SQL = (
    "SELECT OPEN carrier, AVG(distance) AS d, COUNT(*) AS n "
    "FROM Flights GROUP BY carrier"
)

#: Adaptive streaming comparison: a fixed-R run at this cap versus an
#: adaptive stream over the same cap that stops when every carrier's CI
#: half-width is within the relative tolerance.
ADAPTIVE_CAP = 20
ADAPTIVE_TOLERANCE = 0.1
ADAPTIVE_CHUNK = 4

#: Measured at commit c0084e2 (pre-batched-OPEN main) with this exact
#: workload on the container that produced the committed baselines.
PRE_PR = {
    "open_cold_ms": 301.714,
    "open_cached_ms": 128.9645,
    "generators": {
        "mswg": {"fit_ms": 165.6085, "generate_ms": 243.7001},
        "bayesnet": {"fit_ms": 169.4773, "generate_ms": 123.4018},
        "ipf-synth": {"fit_ms": 13.7299, "generate_ms": 8.7317},
    },
}


def tiny_mswg_config() -> MswgConfig:
    return MswgConfig(
        epochs=3,
        hidden_layers=2,
        hidden_units=32,
        num_projections=16,
        batch_size=256,
        latent_dim=2,
    )


def make_flights_db(population, **open_kwargs) -> MosaicDB:
    open_kwargs.setdefault("repetitions", REPETITIONS)
    db = MosaicDB(
        seed=0,
        open_config=OpenQueryConfig(
            generator_factory=BayesNetGenerator,
            rows_per_generation=GENERATION_ROWS,
            **open_kwargs,
        ),
    )
    db.execute(
        "CREATE GLOBAL POPULATION Flights "
        "(carrier TEXT, taxi_out INT, taxi_in INT, elapsed_time INT, distance INT)"
    )
    db.execute("CREATE SAMPLE S AS (SELECT * FROM Flights)")
    sample, _, _ = make_biased_flights_sample(population, CONFIG, db.rng)
    db.ingest_relation("S", bucket_flights(sample, CONFIG))
    for marginal in flights_marginals(population, CONFIG):
        db.register_marginal(marginal.name, "Flights", marginal)
    return db


@pytest.fixture(scope="module")
def flights_population():
    return make_flights_population(CONFIG, np.random.default_rng(0))


@pytest.fixture(scope="module")
def flights_world(flights_population):
    population = flights_population
    db = make_flights_db(population)
    fit_sample, _, _ = make_biased_flights_sample(
        population, CONFIG, np.random.default_rng(1)
    )
    return db, bucket_flights(fit_sample, CONFIG), flights_marginals(population, CONFIG)


@pytest.fixture(scope="module")
def migrants_world():
    rng = np.random.default_rng(0)
    population = make_migrants_population(MigrantsConfig(), rng)
    yahoo = population.filter(
        np.asarray([e == "Yahoo" for e in population.column("email")], dtype=bool)
    )
    keep = rng.choice(yahoo.num_rows, size=yahoo.num_rows // 4, replace=False)
    return yahoo.take(np.sort(keep)), migrants_marginals(population)


def _time_best_of(fn, repetitions: int) -> float:
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def _generate_rounds(generator) -> None:
    """One OPEN generation workload: repetitions x GENERATION_ROWS rows.

    Uses ``generate_batch`` (all bundled generators have it); the same
    helper ran the per-repetition loop when this bench was pointed at
    pre-PR main to produce :data:`PRE_PR`.
    """
    generate_batch = getattr(generator, "generate_batch", None)
    if generate_batch is not None:
        generate_batch(GENERATION_ROWS, REPETITIONS, rng=np.random.default_rng(7))
        return
    from repro.generative.streams import repetition_streams

    for stream in repetition_streams(np.random.default_rng(7), REPETITIONS):
        generator.generate(GENERATION_ROWS, rng=stream)


def test_open_cold_latency(run_once, flights_world):
    db, _, _ = flights_world

    def cold():
        db.clear_caches()
        return db.execute(OPEN_SQL)

    result = run_once(cold)
    assert result.num_rows > 0
    assert result.has_note("composite (rep, group) codes")


def test_open_cached_latency(benchmark, flights_world):
    db, _, _ = flights_world
    db.execute(OPEN_SQL)  # prime the generator + plan caches
    result = benchmark(db.execute, OPEN_SQL)
    assert result.has_note("generator cache hit")


def _adaptive_section(population) -> dict:
    """Fixed-R versus adaptive streaming at the same repetition cap.

    Both runs share the cap (``ADAPTIVE_CAP``) and the workload; the
    adaptive stream stops once every carrier's CI half-width is within
    ``ADAPTIVE_TOLERANCE`` of its running mean.  The section also verifies
    the reported CI half-widths against the sample std of a 10x
    oversampled reference run (same session seed, so the reference's
    repetition streams extend the adaptive run's prefix).
    """
    fixed_db = make_flights_db(population, repetitions=ADAPTIVE_CAP)
    adaptive_db = make_flights_db(
        population,
        repetitions=ADAPTIVE_CAP,
        tolerance=ADAPTIVE_TOLERANCE,
        chunk_repetitions=ADAPTIVE_CHUNK,
    )

    def fixed_cold():
        fixed_db.clear_caches()
        fixed_db.execute(OPEN_SQL)

    last_adaptive = {}

    def adaptive_cold():
        adaptive_db.clear_caches()
        last_adaptive["result"] = adaptive_db.execute(OPEN_SQL)

    fixed_r_open_ms = _time_best_of(fixed_cold, 3)
    adaptive_open_ms = _time_best_of(adaptive_cold, 3)
    adaptive_result = last_adaptive["result"]
    assert adaptive_result.has_note("stopped early"), (
        "bench workload must meet the tolerance before the repetition cap"
    )
    repetitions_used = adaptive_result.repetitions_used

    # CI verification: the adaptive half-widths must agree with a 10x
    # oversampled reference's sample std (z * std_ref / sqrt(used)).
    ci_db = make_flights_db(
        population,
        repetitions=ADAPTIVE_CAP,
        tolerance=ADAPTIVE_TOLERANCE,
        chunk_repetitions=ADAPTIVE_CHUNK,
        report_ci=True,
    )
    ci_result = ci_db.execute(OPEN_SQL)
    used = ci_result.repetitions_used
    reference_db = make_flights_db(
        population, repetitions=10 * used, report_ci=True
    )
    reference = reference_db.execute(OPEN_SQL)
    ref_std = {
        row["carrier"]: row["n__std__"] for row in reference.to_pylist()
    }
    ratios = []
    for row in ci_result.to_pylist():
        sigma = ref_std.get(row["carrier"])
        if sigma is None or sigma == 0.0:
            continue
        expected_half = 1.96 * sigma / np.sqrt(used)
        ratios.append(row["n__ci__"] / expected_half)
    assert ratios, "no overlapping carriers between adaptive and reference runs"
    assert all(1 / 3 <= ratio <= 3 for ratio in ratios), (
        f"adaptive CI half-widths disagree with the oversampled reference: {ratios}"
    )
    assert fixed_r_open_ms >= 1.5 * adaptive_open_ms, (
        f"adaptive streaming must be >=1.5x faster than fixed-R at the cap: "
        f"fixed {fixed_r_open_ms:.1f} ms vs adaptive {adaptive_open_ms:.1f} ms"
    )

    return {
        "cap": ADAPTIVE_CAP,
        "tolerance": ADAPTIVE_TOLERANCE,
        "chunk_repetitions": ADAPTIVE_CHUNK,
        "fixed_r_open_ms": round(fixed_r_open_ms, 4),
        "adaptive_open_ms": round(adaptive_open_ms, 4),
        "repetitions_used": repetitions_used,
        "peak_batch_rows": ADAPTIVE_CHUNK * GENERATION_ROWS,
        "fixed_peak_batch_rows": ADAPTIVE_CAP * GENERATION_ROWS,
        "adaptive_speedup_vs_fixed_r": round(
            fixed_r_open_ms / adaptive_open_ms, 2
        ),
        "ci_vs_oversampled_max_ratio": round(max(ratios), 4),
        "ci_vs_oversampled_min_ratio": round(min(ratios), 4),
    }


def test_emit_bench_json(flights_world, flights_population, migrants_world):
    """Write BENCH_open.json: the OPEN perf trail with pre-PR speedups."""
    db, fit_sample, fit_marginals = flights_world
    migrants_sample, migrants_marginal_list = migrants_world

    def cold():
        db.clear_caches()
        db.execute(OPEN_SQL)

    open_cold_ms = _time_best_of(cold, 3)
    db.execute(OPEN_SQL)  # prime
    open_cached_ms = _time_best_of(lambda: db.execute(OPEN_SQL), 5)

    generators = {}
    for name, factory, (sample, marginals) in (
        ("mswg", lambda: MswgGenerator(tiny_mswg_config()), (fit_sample, fit_marginals)),
        ("bayesnet", BayesNetGenerator, (fit_sample, fit_marginals)),
        (
            "ipf-synth",
            IPFSynthesizer,
            (migrants_sample, migrants_marginal_list),
        ),
    ):
        generator = factory()
        start = time.perf_counter()
        generator.fit(sample, marginals)
        fit_ms = (time.perf_counter() - start) * 1000.0
        generate_ms = _time_best_of(lambda: _generate_rounds(generator), 3)
        generators[name] = {
            "fit_ms": round(fit_ms, 4),
            "generate_ms": round(generate_ms, 4),
        }

    adaptive = _adaptive_section(flights_population)
    adaptive_open_ms = adaptive.pop("adaptive_open_ms")

    payload = {
        "workload": (
            f"flights rows={CONFIG.rows}, repetitions={REPETITIONS}, "
            f"rows_per_generation={GENERATION_ROWS}, generator=bayesnet"
        ),
        "open_cold_ms": round(open_cold_ms, 4),
        "open_cached_ms": round(open_cached_ms, 4),
        # Top-level so the perf gate can track it alongside open_cold_ms;
        # the full fixed-vs-adaptive comparison lives under "adaptive".
        "adaptive_open_ms": adaptive_open_ms,
        "adaptive": adaptive,
        "generators": generators,
        "pre_pr": PRE_PR,
        "open_cold_speedup_vs_pre_pr": round(PRE_PR["open_cold_ms"] / open_cold_ms, 2),
        "open_cached_speedup_vs_pre_pr": round(
            PRE_PR["open_cached_ms"] / open_cached_ms, 2
        ),
    }
    out_path = Path(__file__).resolve().parent.parent / "BENCH_open.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    assert open_cached_ms <= open_cold_ms
