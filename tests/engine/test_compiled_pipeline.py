"""The compiled query pipeline: plans, plan cache, and versioned model caches.

Covers the acceptance contract of the compiled-pipeline refactor:

- weighted-aggregate edge cases through the full SQL surface (zero-weight
  groups, DISTINCT under weights, ORDER BY on an aggregate alias, LIMIT 0),
- repeat execution of an identical SQL string skipping parse/bind/compile
  (observable via ``QueryResult.notes``),
- version-stamped invalidation: a stale plan / reweight / generator is
  never served after INSERT / UPDATE WEIGHTS / CREATE METADATA / DROP,
  while mutations of one sample leave unrelated samples' artifacts cached.
"""

import os
import pickle
import sys
import threading

import numpy as np
import pytest

from repro import MosaicDB
from repro.catalog.metadata import Marginal
from repro.engine.compiler import compile_select, execute_plan
from repro.engine.open_world import IPFSynthesizer, OpenQueryConfig
from repro.errors import MosaicError, SchemaError
from repro.relational.relation import Relation
from repro.sql.parser import parse_statement


@pytest.fixture
def db():
    database = MosaicDB(seed=0)
    database.execute_script(
        """
        CREATE GLOBAL POPULATION Pop (region TEXT, brand TEXT);
        CREATE SAMPLE S AS (SELECT * FROM Pop);
        """
    )
    database.register_marginal(
        "Pop_M1", "Pop", Marginal(["region"], {("N",): 600, ("S",): 400})
    )
    database.ingest_rows("S", [("N", "a")] * 80 + [("S", "a")] * 10 + [("S", "b")] * 10)
    return database


class TestWeightedEdgeCases:
    def test_all_zero_weight_group_disappears(self, db):
        db.execute("UPDATE SAMPLE S SET WEIGHT = 0 WHERE brand = 'b'")
        result = db.execute(
            "SELECT SEMI-OPEN brand, COUNT(*) AS n FROM S GROUP BY brand"
        )
        assert [r["brand"] for r in result.to_pylist()] == ["a"]

    def test_distinct_under_weights_hides_zero_weight_rows(self, db):
        db.execute("UPDATE SAMPLE S SET WEIGHT = 0 WHERE brand = 'b'")
        result = db.execute("SELECT SEMI-OPEN DISTINCT brand FROM S")
        assert [r["brand"] for r in result.to_pylist()] == ["a"]
        unweighted = db.execute("SELECT DISTINCT brand FROM S")
        assert sorted(r["brand"] for r in unweighted.to_pylist()) == ["a", "b"]

    def test_order_by_aggregate_alias(self, db):
        result = db.execute(
            "SELECT region, COUNT(*) AS n FROM S GROUP BY region ORDER BY n DESC"
        )
        counts = [r["n"] for r in result.to_pylist()]
        assert counts == sorted(counts, reverse=True)
        assert result.to_pylist()[0]["region"] == "N"

    def test_limit_zero(self, db):
        result = db.execute("SELECT region FROM S LIMIT 0")
        assert result.num_rows == 0
        aggregate = db.execute(
            "SELECT region, COUNT(*) AS n FROM S GROUP BY region LIMIT 0"
        )
        assert aggregate.num_rows == 0
        assert aggregate.columns == ("region", "n")

    def test_update_weights_failure_leaves_sample_intact(self, db):
        sample = db.catalog.sample("S")
        before = sample.weights
        with pytest.raises(Exception):
            # -1 is rejected by weight validation; the partial update must
            # not leak into the stored vector.
            db.execute("UPDATE SAMPLE S SET WEIGHT = -1 WHERE brand = 'b'")
        assert np.array_equal(sample.weights, before)


class TestPlanCache:
    def test_repeat_sql_hits_plan_cache(self, db):
        sql = "SELECT region, COUNT(*) AS n FROM S GROUP BY region"
        first = db.execute(sql)
        assert first.has_note("plan: compiled and cached")
        second = db.execute(sql)
        assert second.has_note("plan: cache hit")
        assert second.relation.equals(first.relation)

    def test_programmatic_statements_not_cached(self, db):
        result = db.execute_statement(parse_statement("SELECT COUNT(*) AS n FROM S"))
        assert result.has_note("plan: compiled (programmatic statement, not cached)")

    def test_visibility_levels_get_distinct_plans(self, db):
        closed = db.execute("SELECT CLOSED region, COUNT(*) AS n FROM Pop GROUP BY region")
        semi = db.execute("SELECT SEMI-OPEN region, COUNT(*) AS n FROM Pop GROUP BY region")
        # Unweighted COUNT is INT, weighted COUNT is FLOAT — the weighted
        # flag is part of the plan and its cache key.
        assert isinstance(closed.to_pylist()[0]["n"], int)
        assert isinstance(semi.to_pylist()[0]["n"], float)

    def test_drop_and_recreate_with_new_schema_recompiles(self, db):
        db.execute("CREATE TABLE T (x INT)")
        db.execute("INSERT INTO T VALUES (1), (2)")
        sql = "SELECT * FROM T"
        assert db.execute(sql).columns == ("x",)
        db.execute("DROP TABLE T")
        db.execute("CREATE TABLE T (x INT, y TEXT)")
        db.execute("INSERT INTO T VALUES (3, 'a')")
        # Same SQL text, new schema: the fingerprint in the key forces a
        # fresh compile; the stale plan is never served.
        result = db.execute(sql)
        assert result.columns == ("x", "y")
        assert result.has_note("plan: compiled and cached")

    def test_plan_rejects_mismatched_schema(self, db):
        plan = compile_select(
            parse_statement("SELECT region FROM S"), db.catalog.sample("S").relation.schema
        )
        other = Relation.from_dict({"unrelated": [1]})
        with pytest.raises(SchemaError, match="cannot run over"):
            execute_plan(plan, other)

    def test_clear_caches_forces_recompile(self, db):
        sql = "SELECT COUNT(*) AS n FROM S"
        db.execute(sql)
        db.clear_caches()
        assert db.execute(sql).has_note("plan: compiled and cached")

    def test_cache_stats_exposed(self, db):
        sql = "SELECT COUNT(*) AS n FROM S"
        db.execute(sql)
        db.execute(sql)
        stats = db.cache_stats()
        assert stats["plans"]["hits"] >= 1
        assert stats["statements"]["hits"] >= 1

    def test_catalog_version_bumps_on_ddl_not_dml(self, db):
        before = db.cache_stats()["catalog"]["catalog_version"]
        db.ingest_rows("S", [("N", "a")])  # DML: sample version, not catalog
        assert db.cache_stats()["catalog"]["catalog_version"] == before
        db.execute("CREATE TABLE Aux (x INT)")
        assert db.cache_stats()["catalog"]["catalog_version"] == before + 1

    def test_execute_script_repeat_hits_plan_cache(self, db):
        script = (
            "SELECT region, COUNT(*) AS n FROM S GROUP BY region; "
            "SELECT COUNT(*) AS n FROM S"
        )
        first = db.execute_script(script)
        assert all(r.has_note("plan: compiled and cached") for r in first)
        second = db.execute_script(script)
        assert all(r.has_note("plan: cache hit") for r in second)
        for a, b in zip(first, second):
            assert a.relation.equals(b.relation)


class TestReweightCache:
    SQL = "SELECT SEMI-OPEN region, COUNT(*) AS n FROM Pop GROUP BY region"

    def test_repeat_semi_open_hits_reweight_cache(self, db):
        first = db.execute(self.SQL)
        assert not first.has_note("reweight cache hit")
        second = db.execute(self.SQL)
        assert second.has_note("reweight cache hit")
        assert second.relation.equals(first.relation)

    def test_insert_invalidates_reweight(self, db):
        db.execute(self.SQL)
        db.execute(self.SQL)
        db.ingest_rows("S", [("N", "b")] * 10)
        result = db.execute(self.SQL)
        assert not result.has_note("reweight cache hit")
        # Debiased totals still rake to the metadata's population size.
        assert sum(r["n"] for r in result.to_pylist()) == pytest.approx(1000)

    def test_update_weights_invalidates_reweight(self, db):
        db.execute(self.SQL)
        db.execute("UPDATE SAMPLE S SET WEIGHT = 2")
        assert not db.execute(self.SQL).has_note("reweight cache hit")

    def test_create_metadata_invalidates_reweight(self, db):
        db.execute(self.SQL)
        db.register_marginal(
            "Pop_M2", "Pop", Marginal(["brand"], {("a",): 500, ("b",): 500})
        )
        result = db.execute(self.SQL)
        assert not result.has_note("reweight cache hit")
        assert result.has_note("2 marginal(s)")

    def test_drop_metadata_invalidates_reweight(self, db):
        db.execute(self.SQL)
        db.execute("DROP METADATA Pop_M1")
        # Now no metadata and no declared mechanism: serving the cached
        # reweight would silently mask the error.
        from repro.errors import VisibilityError

        with pytest.raises(VisibilityError):
            db.execute(self.SQL)


def two_population_db():
    """A GP with metadata plus two view populations, each with its own sample."""
    database = MosaicDB(
        seed=0,
        open_config=OpenQueryConfig(generator_factory=IPFSynthesizer, repetitions=2),
    )
    database.execute_script(
        """
        CREATE GLOBAL POPULATION GP (region TEXT, brand TEXT);
        CREATE POPULATION North AS (SELECT * FROM GP WHERE region = 'N');
        CREATE POPULATION South AS (SELECT * FROM GP WHERE region = 'S');
        CREATE SAMPLE SN AS (SELECT * FROM North);
        CREATE SAMPLE SS AS (SELECT * FROM South);
        """
    )
    database.register_marginal(
        "GP_M1", "GP", Marginal(["region"], {("N",): 600, ("S",): 400})
    )
    database.register_marginal(
        "North_M1", "North", Marginal(["region"], {("N",): 600})
    )
    database.register_marginal(
        "South_M1", "South", Marginal(["region"], {("S",): 400})
    )
    database.ingest_rows("SN", [("N", "a")] * 30 + [("N", "b")] * 30)
    database.ingest_rows("SS", [("S", "a")] * 40 + [("S", "b")] * 20)
    return database


class TestPerKeyInvalidation:
    """INSERT into one sample must not evict unrelated samples' artifacts."""

    OPEN_NORTH = "SELECT OPEN brand, COUNT(*) AS n FROM North GROUP BY brand"
    OPEN_SOUTH = "SELECT OPEN brand, COUNT(*) AS n FROM South GROUP BY brand"
    SEMI_NORTH = "SELECT SEMI-OPEN brand, COUNT(*) AS n FROM North GROUP BY brand"
    SEMI_SOUTH = "SELECT SEMI-OPEN brand, COUNT(*) AS n FROM South GROUP BY brand"

    def test_generator_cache_survives_unrelated_insert(self):
        db = two_population_db()
        db.execute(self.OPEN_NORTH)
        db.execute(self.OPEN_SOUTH)
        db.ingest_rows("SN", [("N", "b")] * 5)
        south = db.execute(self.OPEN_SOUTH)
        assert south.has_note("generator cache hit")
        north = db.execute(self.OPEN_NORTH)
        assert not north.has_note("generator cache hit")

    def test_reweight_cache_survives_unrelated_insert(self):
        db = two_population_db()
        db.execute(self.SEMI_NORTH)
        db.execute(self.SEMI_SOUTH)
        db.ingest_rows("SN", [("N", "b")] * 5)
        assert db.execute(self.SEMI_SOUTH).has_note("reweight cache hit")
        assert not db.execute(self.SEMI_NORTH).has_note("reweight cache hit")

    def test_metadata_on_one_population_spares_the_other(self):
        db = two_population_db()
        db.execute(self.SEMI_NORTH)
        db.execute(self.SEMI_SOUTH)
        db.register_marginal("North_M2", "North", Marginal(["brand"], {("a",): 300, ("b",): 300}))
        assert db.execute(self.SEMI_SOUTH).has_note("reweight cache hit")
        assert not db.execute(self.SEMI_NORTH).has_note("reweight cache hit")

    def test_dropped_and_recreated_sample_never_served_stale(self):
        db = two_population_db()
        before = db.execute(self.SEMI_NORTH)
        db.execute("DROP SAMPLE SN")
        db.execute("CREATE SAMPLE SN AS (SELECT * FROM North)")
        db.ingest_rows("SN", [("N", "a")] * 10)
        after = db.execute(self.SEMI_NORTH)
        # Fresh sample uid: the predecessor's cached reweight is unreachable.
        assert not after.has_note("reweight cache hit")
        assert not after.relation.equals(before.relation)


def answer_bytes(result) -> list:
    """A result's columns, exact: numeric buffers as bytes, TEXT as lists."""
    columns = []
    for name in result.relation.column_names:
        column = result.relation.column(name)
        columns.append(
            (name, column.tolist() if column.dtype == object else column.tobytes())
        )
    return columns


def cached_weight_bytes(db) -> list[bytes]:
    """The cached debiased weights of every sample still in the catalog."""
    live = {sample.uid for sample in db.engine.catalog._samples.values()}
    return [
        np.ascontiguousarray(weights).tobytes()
        for (_, sample_uid), _, (_, weights, _) in db.engine._reweight_cache.snapshot()
        if sample_uid in live
    ]


def loaded_afresh(live, ddl: str, populations, samples):
    """A new engine holding ``live``'s final state, loaded in one go: the
    same marginals in the same order (copies: nothing memoised on them
    crosses over), each sample's final rows as one ingest, its weights."""
    fresh = MosaicDB(seed=0)
    fresh.execute_script(ddl)
    for population in populations:
        marginals = live.engine.catalog.population(population).marginals
        for name, marginal in marginals.items():
            fresh.register_marginal(
                name, population, pickle.loads(pickle.dumps(marginal))
            )
    for sample in samples:
        stored = live.engine.catalog.sample(sample)
        names = stored.relation.column_names
        fresh.ingest_rows(
            sample, [tuple(row[n] for n in names) for row in stored.relation.to_pylist()]
        )
        fresh.engine.catalog.sample(sample).set_weights(stored.weights)
    return fresh


class TestRetainedCellAssignments:
    """The re-rake after an INSERT assigns cells for the appended rows only
    (ARCHITECTURE §3).  Whatever happened before, the SEMI-OPEN answer and
    the cached weights must be, byte for byte, those of an engine that was
    handed the same final rows at once."""

    DDL = """
        CREATE GLOBAL POPULATION Pop (region TEXT, brand TEXT, size INT);
        CREATE SAMPLE S AS (SELECT * FROM Pop);
    """
    READS = (
        "SELECT SEMI-OPEN region, COUNT(*) AS n, AVG(size) AS s FROM Pop GROUP BY region",
        "SELECT SEMI-OPEN brand, size, COUNT(*) AS n FROM Pop GROUP BY brand, size",
    )
    ROWS = (
        [("N", "a", 1)] * 30 + [("S", "a", 2)] * 8 + [("S", "b", 1)] * 7
        + [("E", "c", 3)] * 5  # region E and brand c: in no marginal
    )
    # New cells, listed and sample-only, that only later INSERTs bring.
    LATER = [("S", "b", 2), ("W", "a", 2), ("N", "d", 4), ("W", "d", 1), ("S", "a", 1)]

    def make(self, **db_kwargs):
        db = MosaicDB(seed=0, **db_kwargs)
        db.execute_script(self.DDL)
        db.register_marginal(
            "Pop_region", "Pop",
            Marginal(["region"], {("N",): 600, ("S",): 300, ("W",): 100}),
        )
        db.register_marginal(
            "Pop_brand_size", "Pop",
            Marginal(
                ["brand", "size"],
                {("a", 1): 400, ("a", 2): 200, ("b", 1.0): 150, ("b", 2): 150,
                 ("d", 1): 100, ("zz", 9): 0},
            ),
        )
        return db

    def insert(self, db, rows):
        values = ", ".join(f"('{r}', '{b}', {s})" for r, b, s in rows)
        db.execute(f"INSERT INTO S VALUES {values}")

    def read(self, db):
        return [answer_bytes(db.execute(sql)) for sql in self.READS]

    def assert_equals_fresh_load(self, db):
        fresh = loaded_afresh(db, self.DDL, ("Pop",), ("S",))
        assert self.read(db) == self.read(fresh)
        assert cached_weight_bytes(db) == cached_weight_bytes(fresh)

    def test_inserts_extend_and_match_a_fresh_load(self):
        db = self.make()
        db.ingest_rows("S", self.ROWS)
        self.read(db)
        for position in range(len(self.LATER)):
            self.insert(db, self.LATER[position : position + 2] * 3)
            self.read(db)
        stats = db.cache_stats()["cell_assignments"]
        assert stats == {"built": 1, "extended": len(self.LATER), "size": 1}
        self.assert_equals_fresh_load(db)

    def test_ingest_relation_extends_like_insert(self):
        db = self.make()
        db.ingest_rows("S", self.ROWS)
        self.read(db)
        db.ingest_relation(
            "S",
            Relation.from_dict(
                {"size": [2, 4], "region": ["W", "N"], "brand": ["a", "d"]}
            ),
        )
        self.read(db)
        assert db.cache_stats()["cell_assignments"]["extended"] == 1
        self.assert_equals_fresh_load(db)

    def test_weight_updates_keep_the_retained_prefix(self):
        db = self.make()
        db.ingest_rows("S", self.ROWS)
        self.read(db)
        db.execute("UPDATE SAMPLE S SET WEIGHT = 3 WHERE brand = 'a'")
        self.read(db)
        self.insert(db, self.LATER)
        db.execute("UPDATE SAMPLE S SET WEIGHT = 0.5 WHERE region = 'W'")
        self.read(db)
        # Neither UPDATE moved a row: every miss after the first extended.
        assert db.cache_stats()["cell_assignments"]["built"] == 1
        assert db.cache_stats()["cell_assignments"]["extended"] == 2
        self.assert_equals_fresh_load(db)

    def test_metadata_changes_start_over(self):
        db = self.make()
        db.ingest_rows("S", self.ROWS)
        self.read(db)
        db.register_marginal(
            "Pop_size", "Pop", Marginal(["size"], {(1,): 500, (2,): 400, (4,): 100})
        )
        self.insert(db, self.LATER)
        self.read(db)
        db.execute("DROP METADATA Pop_region")
        self.insert(db, self.LATER[:2])
        self.read(db)
        # Three marginal sets, three from-scratch assignments.
        assert db.cache_stats()["cell_assignments"]["built"] == 3
        assert db.cache_stats()["cell_assignments"]["extended"] == 0
        self.insert(db, self.LATER[2:])
        self.read(db)
        assert db.cache_stats()["cell_assignments"]["extended"] == 1
        self.assert_equals_fresh_load(db)

    def test_dropped_and_recreated_sample_starts_over(self):
        db = self.make()
        db.ingest_rows("S", self.ROWS)
        self.read(db)
        db.execute("DROP SAMPLE S")
        db.execute("CREATE SAMPLE S AS (SELECT * FROM Pop)")
        # Same name, same length, other rows: a stale prefix would fit.
        db.ingest_rows("S", list(reversed(self.ROWS)))
        self.read(db)
        self.insert(db, self.LATER)
        self.read(db)
        self.assert_equals_fresh_load(db)

    def test_first_ingest_into_an_empty_sample(self):
        db = self.make()
        with pytest.raises(MosaicError):
            db.execute(self.READS[0])  # nothing to rake yet
        db.ingest_rows("S", self.ROWS)  # SampleRelation.replace_data
        self.read(db)
        self.insert(db, self.LATER)
        self.read(db)
        assert db.cache_stats()["cell_assignments"] == {
            "built": 1, "extended": 1, "size": 1,
        }
        self.assert_equals_fresh_load(db)

    def test_replaced_rows_invalidate_the_prefix(self):
        db = self.make()
        db.ingest_rows("S", self.ROWS)
        self.read(db)
        sample = db.engine.catalog.sample("S")
        reordered = sample.relation.take(np.arange(sample.num_rows)[::-1])
        sample.replace_data(reordered, np.ones(reordered.num_rows))
        assert sample.rows_stable_since == sample.version
        self.insert(db, self.LATER)  # an append on top: version moves on alone
        assert sample.rows_stable_since == sample.version - 1
        self.read(db)
        assert db.cache_stats()["cell_assignments"]["extended"] == 0
        self.assert_equals_fresh_load(db)

    def test_checkpoint_close_reopen_then_insert(self, tmp_path):
        db = self.make(data_dir=str(tmp_path))
        db.ingest_rows("S", self.ROWS)
        self.read(db)
        self.insert(db, self.LATER[:2])
        self.read(db)
        db.checkpoint()
        db.close()
        db = MosaicDB(seed=0, data_dir=str(tmp_path))
        try:
            assert db.execute(self.READS[0]).has_note("reweight cache hit")
            self.insert(db, self.LATER[2:])
            self.read(db)
            self.insert(db, self.LATER[:1])
            self.read(db)
            # Nothing was restored to extend: one scratch assignment, then on.
            assert db.cache_stats()["cell_assignments"] == {
                "built": 1, "extended": 1, "size": 1,
            }
            self.assert_equals_fresh_load(db)
        finally:
            db.close()

    def test_nothing_retained_reaches_a_checkpoint(self, tmp_path):
        def checkpoint_files(db):
            directory = os.path.join(str(tmp_path), db.checkpoint()["checkpoint"])
            return {
                name: open(os.path.join(directory, name), "rb").read()
                for name in ("catalog.pkl", "models.pkl")
            }

        db = self.make(data_dir=str(tmp_path))
        try:
            db.ingest_rows("S", self.ROWS)
            before = checkpoint_files(db)
            self.read(db)
            self.read(db)
            after = checkpoint_files(db)
            # The marginals pickle into catalog.pkl; the reads memoised an
            # index on each and the file did not grow by a byte.
            assert len(after["catalog.pkl"]) == len(before["catalog.pkl"])
            assert len(after["models.pkl"]) > len(before["models.pkl"])  # the rake
            for payload in after.values():
                assert b"CellAssignment" not in payload
                assert b"cell_index" not in payload
                assert b"CellIndex" not in payload
        finally:
            db.close()

    VIEW_DDL = """
        CREATE GLOBAL POPULATION Pop (region TEXT, brand TEXT, size INT);
        CREATE POPULATION North AS (SELECT * FROM Pop WHERE region = 'N');
        CREATE POPULATION Small AS (SELECT * FROM Pop WHERE size < 3);
        CREATE SAMPLE S AS (SELECT * FROM Pop);
    """

    def test_view_populations(self):
        """``Small`` has no metadata of its own: the rake runs over the whole
        sample against Pop's marginals (retained, extended) and the view
        applies afterwards.  ``North`` has: the rake runs over the filtered
        rows, from scratch every time, retaining nothing."""
        db = self.make()
        db.execute_script(
            """
            CREATE POPULATION North AS (SELECT * FROM Pop WHERE region = 'N');
            CREATE POPULATION Small AS (SELECT * FROM Pop WHERE size < 3);
            """
        )
        db.register_marginal(
            "North_brand", "North", Marginal(["brand"], {("a",): 450, ("d",): 150})
        )
        reads = [
            "SELECT SEMI-OPEN brand, COUNT(*) AS n FROM North GROUP BY brand",
            "SELECT SEMI-OPEN region, COUNT(*) AS n, AVG(size) AS s FROM Small GROUP BY region",
        ]
        db.ingest_rows("S", self.ROWS)
        for _ in range(2):
            for sql in reads:
                db.execute(sql)
            self.insert(db, self.LATER)
        live = [answer_bytes(db.execute(sql)) for sql in reads]
        assert db.cache_stats()["cell_assignments"] == {
            "built": 1, "extended": 2, "size": 1,
        }
        fresh = loaded_afresh(db, self.VIEW_DDL, ("Pop", "North"), ("S",))
        assert live == [answer_bytes(fresh.execute(sql)) for sql in reads]
        assert cached_weight_bytes(db) == cached_weight_bytes(fresh)

    def test_eight_sessions_race_the_first_read_after_an_insert(self):
        db = self.make()
        db.ingest_rows("S", self.ROWS * 40)
        self.read(db)
        self.insert(db, self.LATER * 20)
        sessions = [db.connect() for _ in range(8)]
        barrier = threading.Barrier(len(sessions))
        answers: list = [None] * len(sessions)

        def first_read(slot):
            barrier.wait(timeout=30)
            answers[slot] = (
                answer_bytes(sessions[slot].execute(self.READS[0])),
                cached_weight_bytes(db),
            )

        threads = [
            threading.Thread(target=first_read, args=(slot,))
            for slot in range(len(sessions))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        fresh = loaded_afresh(db, self.DDL, ("Pop",), ("S",))
        expected = (
            answer_bytes(fresh.execute(self.READS[0])),
            cached_weight_bytes(fresh),
        )
        assert answers == [expected] * len(sessions)
        stats = db.cache_stats()["cell_assignments"]
        assert stats["built"] == 1 and stats["extended"] >= 1 and stats["size"] == 1
