"""The durable store through the engine: checkpoint, replay, commit/rollback."""

import numpy as np
import pytest

from repro import MosaicDB
from repro.errors import CatalogError, UnknownRelationError

SETUP = """
CREATE GLOBAL POPULATION People (country TEXT, age INT);
CREATE TABLE counts (country TEXT, n INT);
INSERT INTO counts VALUES ('UK', 120), ('FR', 200), ('DE', 150);
CREATE METADATA People_M1 AS (SELECT country, n FROM counts);
CREATE SAMPLE S AS (SELECT * FROM People)
"""

ROWS = [("UK", 30)] * 40 + [("FR", 40)] * 30 + [("DE", 50)] * 30


def rows_of(result):
    rel = result.relation
    columns = [rel.column(name) for name in rel.column_names]
    return [tuple(col[i] for col in columns) for i in range(rel.num_rows)]


def build(data_dir, seed=3):
    db = MosaicDB(seed=seed, data_dir=str(data_dir))
    db.execute_script(SETUP)
    db.ingest_rows("S", ROWS)
    return db


def crash(db):
    """Simulate process death: no final checkpoint, WAL survives as-is."""
    db.engine._durable.close()
    db.close()


def test_clean_shutdown_then_reopen_restores_everything(tmp_path):
    db = build(tmp_path)
    before = rows_of(db.execute("SELECT SEMI-OPEN country, COUNT(*) FROM People GROUP BY country"))
    db.close()  # final checkpoint

    db2 = MosaicDB(seed=3, data_dir=str(tmp_path))
    storage = db2.cache_stats()["storage"]
    assert storage["restored_tables"] == 1
    assert storage["restored_samples"] == 1
    assert storage["wal_replayed"] == 0  # clean shutdown leaves an empty WAL
    assert db2.catalog.sample("S").num_rows == len(ROWS)
    assert db2.catalog.population("People").has_metadata
    after = rows_of(db2.execute("SELECT SEMI-OPEN country, COUNT(*) FROM People GROUP BY country"))
    assert before == after
    db2.close()


def test_wal_replay_without_checkpoint(tmp_path):
    db = build(tmp_path)
    expected = rows_of(db.execute("SELECT CLOSED country, COUNT(*) FROM S GROUP BY country"))
    crash(db)

    db2 = MosaicDB(seed=3, data_dir=str(tmp_path))
    storage = db2.cache_stats()["storage"]
    assert storage["wal_replayed"] > 0
    assert rows_of(db2.execute("SELECT CLOSED country, COUNT(*) FROM S GROUP BY country")) == expected
    db2.close()


def test_replay_covers_insert_update_weights_and_drop(tmp_path):
    db = build(tmp_path)
    db.execute("INSERT INTO S VALUES ('UK', 77)")
    db.execute("UPDATE SAMPLE S SET WEIGHT = 2.5 WHERE country = 'UK'")
    db.execute("CREATE TABLE doomed (x INT)")
    db.execute("DROP TABLE doomed")
    weights = db.catalog.sample("S").weights
    crash(db)

    db2 = MosaicDB(seed=3, data_dir=str(tmp_path))
    sample = db2.catalog.sample("S")
    assert sample.num_rows == len(ROWS) + 1
    np.testing.assert_array_equal(sample.weights, weights)
    with pytest.raises(UnknownRelationError):
        db2.catalog.auxiliary("doomed")
    db2.close()


def test_restart_is_idempotent_across_many_boots(tmp_path):
    db = build(tmp_path)
    expected = rows_of(db.execute("SELECT CLOSED COUNT(*) FROM S"))
    crash(db)
    for _ in range(3):  # replay → checkpoint → restore → ... must be stable
        db = MosaicDB(seed=3, data_dir=str(tmp_path))
        assert rows_of(db.execute("SELECT CLOSED COUNT(*) FROM S")) == expected
        db.close()


def test_model_caches_restore_warm(tmp_path):
    db = build(tmp_path)
    db.execute("SELECT SEMI-OPEN country, COUNT(*) FROM People GROUP BY country")
    db.execute("SELECT OPEN COUNT(*) FROM People")
    db.close()

    db2 = MosaicDB(seed=3, data_dir=str(tmp_path))
    assert db2.cache_stats()["storage"]["restored_models"] == 2
    result = db2.execute("SELECT SEMI-OPEN country, COUNT(*) FROM People GROUP BY country")
    assert any("reweight cache hit" in note for note in result.notes)
    result = db2.execute("SELECT OPEN COUNT(*) FROM People")
    assert any("generator cache hit" in note for note in result.notes)
    stats = db2.cache_stats()
    assert stats["reweights"]["hits"] == 1 and stats["reweights"]["misses"] == 0
    assert stats["generators"]["hits"] == 1 and stats["generators"]["misses"] == 0
    db2.close()


def test_replayed_mutation_invalidates_persisted_models(tmp_path):
    db = build(tmp_path)
    db.execute("SELECT SEMI-OPEN country, COUNT(*) FROM People GROUP BY country")
    db.engine.checkpoint()  # persists the fitted reweight
    db.execute("INSERT INTO S VALUES ('UK', 99)")  # WAL only
    crash(db)

    db2 = MosaicDB(seed=3, data_dir=str(tmp_path))
    storage = db2.cache_stats()["storage"]
    # Replay bumped the sample past the version the model was fitted at.
    assert storage["stale_models_skipped"] >= 1
    assert storage["restored_models"] == 0
    result = db2.execute("SELECT SEMI-OPEN country, COUNT(*) FROM People GROUP BY country")
    assert not any("cache hit" in note for note in result.notes)
    db2.close()


def test_temporary_tables_do_not_survive_restart(tmp_path):
    db = build(tmp_path)
    db.execute("CREATE TEMPORARY TABLE scratch (x INT)")
    db.execute("INSERT INTO scratch VALUES (1), (2)")
    db.close()

    db2 = MosaicDB(seed=3, data_dir=str(tmp_path))
    with pytest.raises(UnknownRelationError):
        db2.catalog.auxiliary("scratch")
    db2.close()


def test_commit_and_rollback(tmp_path):
    db = build(tmp_path)
    db.commit()
    db.execute("CREATE TABLE uncommitted (x INT)")
    db.ingest_rows("S", [("UK", 1)])
    assert db.catalog.sample("S").num_rows == len(ROWS) + 1

    summary = db.rollback()
    assert summary["discarded_wal_bytes"] > 0
    assert db.catalog.sample("S").num_rows == len(ROWS)
    with pytest.raises(UnknownRelationError):
        db.catalog.auxiliary("uncommitted")
    # The store stays writable after a rollback.
    db.execute("CREATE TABLE after_rollback (x INT)")
    db.close()

    db2 = MosaicDB(seed=3, data_dir=str(tmp_path))
    db2.catalog.auxiliary("after_rollback")
    db2.close()


def test_rollback_without_checkpoint_empties_catalog(tmp_path):
    db = build(tmp_path)
    db.rollback()
    assert db.catalog.sample_names == []
    assert db.catalog.auxiliary_names == []
    db.close()


def test_checkpoint_requires_data_dir():
    db = MosaicDB(seed=0)
    with pytest.raises(CatalogError, match="data_dir"):
        db.checkpoint()
    with pytest.raises(CatalogError, match="data_dir"):
        db.rollback()
    db.close()


def test_wal_limit_triggers_auto_checkpoint(tmp_path, monkeypatch):
    monkeypatch.setenv("MOSAIC_WAL_LIMIT_BYTES", "4000")
    db = build(tmp_path)
    for _ in range(4):
        db.ingest_rows("S", ROWS)  # each ingest logs the whole relation
    storage = db.cache_stats()["storage"]
    assert storage["checkpoints_written"] >= 1
    assert storage["wal_bytes"] <= 4000
    db.close()

    db2 = MosaicDB(seed=3, data_dir=str(tmp_path))
    assert db2.catalog.sample("S").num_rows == 5 * len(ROWS)
    db2.close()


def test_old_checkpoints_are_garbage_collected(tmp_path):
    db = build(tmp_path)
    for _ in range(4):
        db.engine.checkpoint()
    names = [p.name for p in tmp_path.iterdir() if p.name.startswith("ck-")]
    # boot state had no checkpoint, so only current + immediately previous
    # survive; nothing unbounded accumulates.
    assert len(names) <= 2
    db.close()


def test_restored_sample_weights_are_adopted_without_copy(tmp_path):
    db = build(tmp_path)
    db.execute("UPDATE SAMPLE S SET WEIGHT = 1.5")
    db.close()

    db2 = MosaicDB(seed=3, data_dir=str(tmp_path))
    sample = db2.catalog.sample("S")
    assert not sample._weights.flags.writeable  # the mmap view itself
    np.testing.assert_array_equal(sample.weights, np.full(len(ROWS), 1.5))
    # Mutators must still work (they replace, never write in place).
    db2.execute("UPDATE SAMPLE S SET WEIGHT = 2.0")
    np.testing.assert_array_equal(sample.weights, np.full(len(ROWS), 2.0))
    db2.close()


def test_persisted_generator_is_parameters_not_generation_buffers(tmp_path):
    """An OPEN answer leaves ~R·n rows of generation scratch on the model;
    the checkpoint must carry the parameters only."""
    rng = np.random.default_rng(0)
    rows = [
        (str(country), int(age))
        for country, age in zip(
            rng.choice(["UK", "FR", "DE"], size=2000, p=[0.5, 0.3, 0.2]),
            rng.integers(18, 90, size=2000),
        )
    ]
    query = "SELECT OPEN country, COUNT(*) AS n, AVG(age) AS a FROM People GROUP BY country"
    db = MosaicDB(seed=3, data_dir=str(tmp_path))
    db.execute_script(SETUP)
    db.ingest_rows("S", rows)
    before = rows_of(db.execute(query))
    db.close()

    (models,) = tmp_path.glob("ck-*/models.pkl")
    assert models.stat().st_size < 1_000_000

    db2 = MosaicDB(seed=3, data_dir=str(tmp_path))
    result = db2.execute(query)
    assert result.has_note("generator cache hit")
    assert rows_of(result) == before
    db2.close()
