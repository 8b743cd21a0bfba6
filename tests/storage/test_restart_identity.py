"""Bit-identity across checkpoint → restart.

The acceptance bar for durable storage: a restarted engine answers every
visibility *bit-identically* to the pre-restart engine — CLOSED and
SEMI-OPEN because the mapped pages are byte-identical to the original
arrays, OPEN additionally because session RNG streams are derived from
the engine seed and the (matched) session spawn index, never from
storage.
"""

import numpy as np

from repro import MosaicDB
from repro.core.session import SessionConfig
from repro.workloads.flights import (
    FlightsConfig,
    bucket_flights,
    flights_marginals,
    make_biased_flights_sample,
    make_flights_population,
)

CONFIG = FlightsConfig(rows=6_000)

QUERIES = (
    "SELECT CLOSED carrier, COUNT(*) FROM Flights GROUP BY carrier",
    "SELECT CLOSED AVG(distance) FROM FlightsSample",
    "SELECT SEMI-OPEN carrier, COUNT(*) FROM Flights GROUP BY carrier",
    "SELECT SEMI-OPEN AVG(elapsed_time) FROM Flights",
    "SELECT OPEN COUNT(*) FROM Flights WHERE elapsed_time <= 200",
    "SELECT OPEN carrier, COUNT(*) FROM Flights GROUP BY carrier",
)


def build_flights(data_dir) -> MosaicDB:
    db = MosaicDB(seed=23, data_dir=str(data_dir))
    db.execute(
        "CREATE GLOBAL POPULATION Flights (carrier TEXT, taxi_out INT, "
        "taxi_in INT, elapsed_time INT, distance INT)"
    )
    rng = np.random.default_rng(101)
    population = make_flights_population(CONFIG, rng)
    sample, mechanism, _ = make_biased_flights_sample(population, CONFIG, rng)
    db.execute("CREATE SAMPLE FlightsSample AS (SELECT * FROM Flights)")
    # The marginals are bucketed; the ingested sample must match or IPF
    # sees zero-mass cells (same convention as experiments/random_queries).
    db.ingest_relation("FlightsSample", bucket_flights(sample, CONFIG))
    for marginal in flights_marginals(population, CONFIG):
        db.register_marginal(marginal.name, "Flights", marginal)
    return db


def run_queries(db) -> list[dict[str, np.ndarray]]:
    out = []
    for sql in QUERIES:
        relation = db.execute(sql).relation
        out.append({name: relation.column(name) for name in relation.column_names})
    return out


def assert_identical(first, second):
    for sql, a, b in zip(QUERIES, first, second):
        assert list(a) == list(b), sql
        for name in a:
            np.testing.assert_array_equal(a[name], b[name], err_msg=sql)


def test_all_three_visibilities_bit_identical_across_restart(tmp_path):
    db = build_flights(tmp_path)
    before = run_queries(db)
    db.close()

    db2 = MosaicDB(seed=23, data_dir=str(tmp_path))
    assert db2.cache_stats()["storage"]["restored_models"] >= 1
    assert_identical(before, run_queries(db2))
    db2.close()


def test_spawned_sessions_match_across_restart(tmp_path):
    # The fleet pins logical clients to spawn indices; a restarted shard
    # must replay the same per-index RNG streams (pool_size=1 → index 0).
    db = build_flights(tmp_path)
    session = db.engine.connect(SessionConfig(), spawn_index=0)
    before = session.execute(QUERIES[4]).relation.column("COUNT(*)")
    session.close()
    db.close()

    db2 = MosaicDB(seed=23, data_dir=str(tmp_path))
    session = db2.engine.connect(SessionConfig(), spawn_index=0)
    after = session.execute(QUERIES[4]).relation.column("COUNT(*)")
    session.close()
    np.testing.assert_array_equal(before, after)
    db2.close()
