"""Early stopping on the OPEN repetition stream (``tolerance > 0``).

The stream generates repetitions in chunks, merges each chunk's
per-(rep, group) cells into O(G) running state, and stops once every
surviving group's CI half-width meets the relative tolerance.  Its hard
contracts:

- ``tolerance=0`` (the default) generates all ``repetitions`` in one chunk.
- Run to the cap, a chunked stream's answer is *bit-identical* to the
  one-chunk answer for every generator and key type (the chunked-stream
  RNG contract: repetition ``r`` always draws from stream ``r``, however
  the stream is chunked).
- Early stopping never fires before ``min_repetitions`` participating
  repetitions.
- ``repetitions_used`` is deterministic under a fixed seed — in-process
  and over TCP.
"""

import numpy as np
import pytest

from repro import MosaicDB
from repro.catalog.metadata import Marginal
from repro.client import Connection
from repro.engine.open_world import (
    CONFIDENCE_Z,
    BayesNetGenerator,
    IPFSynthesizer,
    MswgGenerator,
    OpenQueryConfig,
)
from repro.errors import MosaicError, ProtocolError
from repro.generative.mswg import MswgConfig
from repro.server.server import MosaicServer
from repro.workloads.spiral import (
    SpiralConfig,
    make_biased_spiral_sample,
    make_spiral_population,
    spiral_marginals,
)

REPETITIONS = 8
GEN_ROWS = 800

SQL = (
    "SELECT OPEN country, email, COUNT(*) AS n "
    "FROM EuropeMigrants GROUP BY country, email"
)


def tiny_mswg():
    return MswgGenerator(
        MswgConfig(
            epochs=2,
            hidden_layers=2,
            hidden_units=16,
            num_projections=8,
            batch_size=128,
            latent_dim=2,
        )
    )


GENERATOR_FACTORIES = {
    "ipf-synth": IPFSynthesizer,
    "bayesnet": BayesNetGenerator,
    "mswg": tiny_mswg,
}


def build_db(factory=IPFSynthesizer, seed: int = 0, **open_kwargs) -> MosaicDB:
    db = MosaicDB(
        seed=seed,
        open_config=OpenQueryConfig(
            generator_factory=factory,
            repetitions=REPETITIONS,
            rows_per_generation=GEN_ROWS,
            **open_kwargs,
        ),
    )
    db.execute_script(
        """
        CREATE GLOBAL POPULATION EuropeMigrants (country TEXT, email TEXT);
        CREATE SAMPLE S AS (SELECT * FROM EuropeMigrants);
        """
    )
    db.register_marginal(
        "M1",
        "EuropeMigrants",
        Marginal(["country"], {("UK",): 700, ("FR",): 250, ("DE",): 50}),
    )
    db.register_marginal(
        "M2", "EuropeMigrants", Marginal(["email"], {("Yahoo",): 600, ("AOL",): 400})
    )
    db.ingest_rows(
        "S",
        [("UK", "Yahoo")] * 50 + [("FR", "Yahoo")] * 30 + [("DE", "Yahoo")] * 5,
    )
    return db


class TestToleranceZeroIsOneChunk:
    """tolerance=0 (the default): nothing to stop on, one chunk of R."""

    @pytest.mark.parametrize("name", list(GENERATOR_FACTORIES))
    def test_default_config_runs_all_repetitions_in_one_chunk(self, name):
        result = build_db(GENERATOR_FACTORIES[name]).execute(SQL)
        assert result.has_note(
            f"streamed {REPETITIONS} of up to {REPETITIONS} repetition(s) "
            f"in chunks of {REPETITIONS} over composite (rep, group) codes"
        )
        assert not result.has_note("tolerance")
        assert result.repetitions_used == REPETITIONS

    @pytest.mark.parametrize("name", list(GENERATOR_FACTORIES))
    def test_adaptive_run_to_cap_bit_identical_to_fixed(self, name):
        """A chunked stream forced to the cap (unreachable tolerance,
        min_repetitions pinned to R) reproduces the one-chunk answer
        exactly — chunked generation and streamed merging change nothing."""
        factory = GENERATOR_FACTORIES[name]
        fixed = build_db(factory).execute(SQL)
        adaptive = build_db(
            factory, tolerance=1e-15, min_repetitions=REPETITIONS
        ).execute(SQL)
        assert adaptive.has_note("in chunks of 4")
        assert adaptive.has_note("repetition cap reached")
        assert adaptive.repetitions_used == REPETITIONS
        assert adaptive.relation.schema == fixed.relation.schema
        assert adaptive.to_pylist() == fixed.to_pylist()  # bit-identical

    def test_chunk_size_never_changes_the_answer(self):
        """Chunking is invisible: any chunk_repetitions yields the same
        rows (per-repetition RNG streams, key-row merging)."""
        expected = build_db().execute(SQL).to_pylist()
        for chunk in (1, 3, REPETITIONS, REPETITIONS + 5):
            result = build_db(
                tolerance=1e-15,
                min_repetitions=REPETITIONS,
                chunk_repetitions=chunk,
            ).execute(SQL)
            assert result.to_pylist() == expected, f"chunk={chunk}"


class TestEarlyStopping:
    def test_stops_before_cap_on_loose_tolerance(self):
        result = build_db(tolerance=0.9).execute(SQL)
        assert result.has_note("stopped early")
        assert result.repetitions_used < REPETITIONS
        assert result.repetitions_used >= 3  # default min_repetitions

    def test_never_stops_before_min_repetitions(self):
        """Even an absurdly loose tolerance must generate min_repetitions
        participating repetitions before the stop rule may fire."""
        result = build_db(
            tolerance=100.0, min_repetitions=6, chunk_repetitions=2
        ).execute(SQL)
        assert result.repetitions_used == 6

    def test_max_repetitions_overrides_the_cap(self):
        result = build_db(
            tolerance=1e-15, min_repetitions=64, max_repetitions=10
        ).execute(SQL)
        assert result.repetitions_used == 10

    def test_repetitions_used_deterministic_under_fixed_seed(self):
        first = build_db(tolerance=0.9).execute(SQL)
        second = build_db(tolerance=0.9).execute(SQL)
        assert first.repetitions_used == second.repetitions_used
        assert first.to_pylist() == second.to_pylist()

    def test_spiral_low_variance_workload_stops_early(self):
        """Ungrouped aggregates over the spiral workload (Sec. 5.3) meet a
        5% tolerance well before the repetition cap with a tiny M-SWG."""
        config = SpiralConfig(population_size=4000, sample_size=400)
        rng = np.random.default_rng(11)
        population = make_spiral_population(config, rng)
        sample, _ = make_biased_spiral_sample(population, config, rng)
        db = MosaicDB(
            seed=5,
            open_config=OpenQueryConfig(
                generator_factory=tiny_mswg,
                repetitions=12,
                rows_per_generation=400,
                tolerance=0.05,
            ),
        )
        db.execute("CREATE GLOBAL POPULATION Spiral (x FLOAT, y FLOAT)")
        db.execute("CREATE SAMPLE S AS (SELECT * FROM Spiral)")
        for marginal in spiral_marginals(population, config):
            db.register_marginal(marginal.name, "Spiral", marginal)
        db.engine.ingest_relation("S", sample)

        result = db.execute(
            "SELECT OPEN COUNT(*) AS n, AVG(x) AS mean_x FROM Spiral"
        )
        assert result.has_note("stopped early")
        assert result.repetitions_used < 12
        assert result.num_rows == 1


class TestConfidenceColumns:
    def test_report_ci_appends_std_and_ci_columns(self):
        result = build_db(tolerance=0.9, report_ci=True).execute(SQL)
        assert result.columns == ("country", "email", "n", "n__std__", "n__ci__")
        used = result.repetitions_used
        std = result.column("n__std__")
        ci = result.column("n__ci__")
        assert np.all(std > 0)
        np.testing.assert_allclose(ci, CONFIDENCE_Z * std / np.sqrt(used))

    def test_ci_shrinks_with_more_repetitions(self):
        few = build_db(
            tolerance=1e-15, min_repetitions=4, max_repetitions=4, report_ci=True
        ).execute(SQL)
        many = build_db(
            tolerance=1e-15,
            min_repetitions=16,
            max_repetitions=16,
            report_ci=True,
        ).execute(SQL)
        assert np.mean(many.column("n__ci__")) < np.mean(few.column("n__ci__"))


class TestNumericKeys:
    """Numeric GROUP BY keys have no vocabulary; chunks match on key rows,
    so they stream and stop early like TEXT keys."""

    SQL = "SELECT OPEN age, COUNT(*) AS n FROM People GROUP BY age"

    @staticmethod
    def _numeric_db(**open_kwargs):
        db = MosaicDB(
            seed=0,
            open_config=OpenQueryConfig(
                generator_factory=IPFSynthesizer,
                repetitions=6,
                rows_per_generation=600,
                **open_kwargs,
            ),
        )
        db.execute_script(
            """
            CREATE GLOBAL POPULATION People (country TEXT, age INT);
            CREATE SAMPLE S AS (SELECT * FROM People);
            """
        )
        db.register_marginal(
            "M1", "People", Marginal(["country"], {("UK",): 700, ("FR",): 300})
        )
        db.register_marginal(
            "M2", "People", Marginal(["age"], {(20,): 600, (30,): 400})
        )
        db.ingest_rows("S", [("UK", 20)] * 40 + [("FR", 30)] * 20)
        return db

    def test_numeric_key_run_to_the_cap_equals_the_fixed_answer(self):
        fixed = self._numeric_db().execute(self.SQL)
        capped = self._numeric_db(tolerance=1e-15).execute(self.SQL)
        assert capped.has_note("in chunks of 4")
        assert capped.repetitions_used == 6
        assert capped.to_pylist() == fixed.to_pylist()
        for name in ("age", "n"):
            assert capped.column(name).tobytes() == fixed.column(name).tobytes()

    def test_numeric_key_stops_early_on_a_generous_tolerance(self):
        result = self._numeric_db(tolerance=0.5).execute(self.SQL)
        assert result.has_note("stopped early")
        assert result.repetitions_used < 6
        assert result.num_rows == 2


class TestOverTheWireAndWorkers:
    def test_adaptive_over_tcp_carries_repetitions_used(self):
        """Per-connection HELLO options switch on the adaptive path; the
        RESULT frame carries repetitions_used and the CI columns, and the
        wire answer matches the in-process one bit-for-bit."""
        # The server connection is that engine's *second* session (the db
        # object itself holds the first), so the in-process expectation
        # must come from a matching second session: spawn index k draws
        # RNG stream k.
        expected = build_db(tolerance=0.9, report_ci=True).connect().execute(SQL)

        server_db = build_db()
        server = MosaicServer(
            server_db.engine, port=0, session_config=server_db.session.config
        ).start_in_thread()
        try:
            with Connection(
                "127.0.0.1",
                server.port,
                open_options={"tolerance": 0.9, "report_ci": True},
            ) as conn:
                received = conn.execute(SQL)
                stats = conn.stats()
        finally:
            server.stop_in_thread()

        assert received.repetitions_used == expected.repetitions_used
        assert received.columns == expected.columns
        for name in expected.columns:
            mine, theirs = received.column(name), expected.column(name)
            if mine.dtype == object:
                assert list(mine) == list(theirs)
            else:
                assert mine.tobytes() == theirs.tobytes()
        assert stats["engine"]["open_adaptive"]["runs"] == 1
        assert stats["engine"]["open_adaptive"]["early_stops"] == 1

    def test_unknown_open_option_rejected(self):
        server_db = build_db()
        server = MosaicServer(
            server_db.engine, port=0, session_config=server_db.session.config
        ).start_in_thread()
        try:
            with pytest.raises((ProtocolError, MosaicError)):
                Connection(
                    "127.0.0.1",
                    server.port,
                    open_options={"rows_per_generation": 10**9},
                )
        finally:
            server.stop_in_thread()

    def test_shutdown_after_adaptive_stream_is_clean(self):
        db = build_db(tolerance=0.9)
        result = db.execute(SQL)
        assert result.has_note("stopped early")
        db.close()
        with pytest.raises(MosaicError):
            db.execute(SQL)

    def test_shutdown_drains_in_flight_adaptive_stream(self):
        """Engine.shutdown() racing adaptive streams: in-flight statements
        complete (the fence rises under the write lock, past-entry reads
        finish first) and later ones fail cleanly."""
        import threading

        db = build_db(tolerance=1e-15, min_repetitions=REPETITIONS)
        outcomes = []

        def stream_queries():
            try:
                for _ in range(4):
                    outcomes.append(db.execute(SQL).repetitions_used)
            except MosaicError:
                outcomes.append("closed")

        worker = threading.Thread(target=stream_queries)
        worker.start()
        db.engine.shutdown()
        worker.join(timeout=60)
        assert not worker.is_alive()
        # Every completed stream ran to the cap; at most the tail query
        # observed the fence.
        assert all(o == REPETITIONS or o == "closed" for o in outcomes)
