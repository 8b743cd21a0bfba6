"""Concurrency and isolation tests for the Engine / Session split.

Three families:

- stress: 8 threads mixing SELECT / INSERT / CREATE METADATA over one
  shared engine, asserting no torn reads (every observed COUNT is a
  consistent prefix state) and correct final counts;
- determinism: concurrent OPEN execution is bit-identical to the serial
  path under the same seed;
- session isolation: independent RNG streams, per-session visibility
  defaults, engine-shared cache statistics.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import MosaicDB
from repro.catalog.metadata import Marginal
from repro.core.caches import LRUCache, VersionedLRUCache
from repro.core.locks import ReadWriteLock
from repro.core.visibility import Visibility
from repro.engine.open_world import IPFSynthesizer, OpenQueryConfig


def make_db(**kwargs) -> MosaicDB:
    db = MosaicDB(seed=0, **kwargs)
    db.execute_script(
        """
        CREATE GLOBAL POPULATION P (country TEXT, email TEXT);
        CREATE SAMPLE S AS (SELECT * FROM P);
        """
    )
    db.register_marginal(
        "P_M1", "P", Marginal(["country"], {("UK",): 700, ("FR",): 300})
    )
    db.register_marginal(
        "P_M2", "P", Marginal(["email"], {("Yahoo",): 600, ("AOL",): 400})
    )
    db.ingest_rows("S", [("UK", "Yahoo")] * 60 + [("FR", "Yahoo")] * 40)
    return db


class TestStress:
    """8 threads of mixed DML/DDL/SELECT traffic over one engine."""

    READERS = 5
    WRITERS = 2
    METADATA_WRITERS = 1
    OPS = 40
    BATCH = 3  # rows per INSERT

    def test_mixed_select_insert_create_metadata(self):
        db = make_db()
        initial = db.catalog.sample("S").num_rows
        start = threading.Barrier(self.READERS + self.WRITERS + self.METADATA_WRITERS)
        errors: list[Exception] = []
        observed_counts: list[int] = []

        def reader(session):
            try:
                start.wait()
                for _ in range(self.OPS):
                    result = session.execute("SELECT CLOSED COUNT(*) AS n FROM S")
                    observed_counts.append(int(result.scalar()))
                    weighted = session.execute(
                        "SELECT SEMI-OPEN country, COUNT(*) AS n FROM S GROUP BY country"
                    )
                    # Torn read check: the weighted path touches both the
                    # tuple store and the weight vector; a mismatch raises
                    # inside execute_plan.
                    assert weighted.num_rows >= 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer(session):
            try:
                start.wait()
                for _ in range(self.OPS):
                    session.execute(
                        "INSERT INTO S VALUES "
                        + ", ".join(["('UK', 'Yahoo')"] * self.BATCH)
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def metadata_writer(session):
            try:
                start.wait()
                for i in range(self.OPS):
                    session.register_marginal(
                        f"P_extra_{i}", "P", Marginal(["country"], {("UK",): 1.0})
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = (
            [threading.Thread(target=reader, args=(db.connect(),)) for _ in range(self.READERS)]
            + [threading.Thread(target=writer, args=(db.connect(),)) for _ in range(self.WRITERS)]
            + [threading.Thread(target=metadata_writer, args=(db.connect(),))]
        )
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "worker thread deadlocked"
        assert errors == []

        # Correct final counts: every INSERT landed exactly once.
        expected = initial + self.WRITERS * self.OPS * self.BATCH
        assert db.catalog.sample("S").num_rows == expected
        assert db.execute("SELECT CLOSED COUNT(*) AS n FROM S").scalar() == expected
        # Every metadata registration landed (plus the two fixture marginals).
        assert len(db.catalog.population("P").marginals) == 2 + self.OPS

        # No torn reads: each observed count is a consistent prefix state —
        # the initial rows plus a whole number of insert batches.
        for count in observed_counts:
            assert (count - initial) % self.BATCH == 0
            assert initial <= count <= expected

    def test_weights_never_torn(self):
        """UPDATE WEIGHTS races SELECTs; a reader must never see a weight
        vector whose length disagrees with the tuple store."""
        db = make_db()
        stop = threading.Event()
        errors: list[Exception] = []

        def reader(session):
            try:
                while not stop.is_set():
                    result = session.execute(
                        "SELECT SEMI-OPEN country, COUNT(*) AS n FROM S GROUP BY country"
                    )
                    total = sum(r["n"] for r in result.to_pylist())
                    assert total > 0
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        readers = [
            threading.Thread(target=reader, args=(db.connect(),)) for _ in range(3)
        ]
        for t in readers:
            t.start()
        try:
            writer = db.connect()
            for i in range(30):
                writer.execute("UPDATE SAMPLE S SET WEIGHT = weight * 1")
                writer.execute("INSERT INTO S VALUES ('UK', 'Yahoo')")
        finally:
            stop.set()
        for t in readers:
            t.join(timeout=60)
            assert not t.is_alive(), "reader thread deadlocked"
        assert errors == []


class TestOpenDeterminism:
    """OPEN answers are a function of the query, the model and the seed."""

    SQL = "SELECT OPEN country, email, COUNT(*) AS n FROM P GROUP BY country, email"

    def run_open(self):
        db = make_db(
            open_config=OpenQueryConfig(
                generator_factory=IPFSynthesizer,
                repetitions=6,
                rows_per_generation=2000,
            )
        )
        return db.execute(self.SQL)

    def test_deterministic_across_runs(self):
        assert self.run_open().to_pylist() == self.run_open().to_pylist()


class TestSessionIsolation:
    def test_sessions_have_independent_deterministic_rngs(self):
        db_a = MosaicDB(seed=7)
        db_b = MosaicDB(seed=7)
        # Root session reproduces the pre-split MosaicDB stream exactly.
        assert db_a.rng.integers(1 << 30) == np.random.default_rng(7).integers(1 << 30)
        # Spawned sessions: deterministic per connect order, independent of
        # each other and of the root.
        a1, a2 = db_a.connect(), db_a.connect()
        b1, b2 = db_b.connect(), db_b.connect()
        draw = lambda s: s.rng.integers(1 << 62, size=4).tolist()
        assert draw(a1) == draw(b1)
        assert draw(a2) == draw(b2)
        assert draw(db_a.connect()) != draw(db_a.connect())

    def test_per_session_visibility_defaults(self):
        db = make_db()
        closed_session = db.connect(default_visibility=Visibility.CLOSED)
        default_session = db.connect()
        sql = "SELECT country, COUNT(*) AS n FROM P GROUP BY country"
        assert closed_session.execute(sql).visibility == "CLOSED"
        assert default_session.execute(sql).visibility == "SEMI-OPEN"
        assert db.execute(sql).visibility == "SEMI-OPEN"

    def test_cache_stats_shared_across_sessions(self):
        db = make_db()
        sql = "SELECT CLOSED country, COUNT(*) AS n FROM S GROUP BY country"
        first = db.connect()
        second = db.connect()
        first.execute(sql)
        before = second.cache_stats()["plans"]["hits"]
        result = second.execute(sql)  # plan compiled by the *other* session
        assert result.has_note("plan: cache hit")
        assert second.cache_stats()["plans"]["hits"] == before + 1
        assert db.cache_stats() == second.cache_stats()

    def test_open_config_isolated_per_session(self):
        """set_open_generator (or any open_config tweak) on one session
        must not leak into the root or sibling sessions."""
        db = make_db(
            open_config=OpenQueryConfig(generator_factory=IPFSynthesizer, repetitions=3)
        )
        first = db.connect()
        second = db.connect()
        assert first.config.open_config is not db.config.open_config
        assert first.config.open_config is not second.config.open_config

        sentinel = lambda: IPFSynthesizer()
        first.set_open_generator(sentinel)
        first.config.open_config.repetitions = 99
        assert db.config.open_config.generator_factory is IPFSynthesizer
        assert second.config.open_config.generator_factory is IPFSynthesizer
        assert db.config.open_config.repetitions == 3
        assert second.config.open_config.repetitions == 3

    def test_sessions_share_the_catalog(self):
        db = make_db()
        writer = db.connect()
        reader = db.connect()
        writer.execute("INSERT INTO S VALUES ('FR', 'AOL')")
        assert reader.execute("SELECT CLOSED COUNT(*) AS n FROM S").scalar() == 101


class TestThreadSafeCaches:
    def test_lru_cache_parallel_churn(self):
        cache = LRUCache(capacity=32)

        def churn(worker: int):
            for i in range(500):
                key = (worker * 7 + i) % 64
                if cache.get(key) is None:
                    cache.put(key, key)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(churn, range(8)))
        stats = cache.stats()
        assert len(cache) <= 32
        assert stats["hits"] + stats["misses"] == 8 * 500

    def test_versioned_cache_parallel_stamp_churn(self):
        cache = VersionedLRUCache(capacity=16)

        def churn(worker: int):
            for i in range(400):
                key = i % 8
                stamp = i % 3
                if cache.get(key, stamp) is None:
                    cache.put(key, stamp, (key, stamp))

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(churn, range(8)))
        for key in range(8):
            for stamp in range(3):
                value = cache.get(key, stamp)
                assert value is None or value == (key, stamp)


class TestReadWriteLock:
    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        state = {"readers": 0, "writers": 0, "max_readers": 0}
        state_mutex = threading.Lock()
        errors: list[str] = []

        def read_task():
            for _ in range(200):
                with lock.read_locked():
                    with state_mutex:
                        state["readers"] += 1
                        state["max_readers"] = max(
                            state["max_readers"], state["readers"]
                        )
                        if state["writers"]:
                            errors.append("reader overlapped writer")
                    with state_mutex:
                        state["readers"] -= 1

        def write_task():
            for _ in range(100):
                with lock.write_locked():
                    with state_mutex:
                        state["writers"] += 1
                        if state["writers"] > 1 or state["readers"]:
                            errors.append("writer not exclusive")
                    with state_mutex:
                        state["writers"] -= 1

        threads = [threading.Thread(target=read_task) for _ in range(4)] + [
            threading.Thread(target=write_task) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "lock test deadlocked"
        assert errors == []
