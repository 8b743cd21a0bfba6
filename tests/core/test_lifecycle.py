"""Session / Engine lifecycle: close() and shutdown()."""

import pytest

from repro import MosaicDB
from repro.catalog.metadata import Marginal
from repro.errors import SessionClosedError


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


class TestSessionClose:
    def test_context_manager_closes(self):
        db = make_db()
        with db.connect() as session:
            assert session.execute("SELECT CLOSED COUNT(*) AS n FROM S").scalar() == 100
        assert session.closed
        with pytest.raises(SessionClosedError):
            session.execute("SELECT CLOSED COUNT(*) AS n FROM S")
        with pytest.raises(SessionClosedError):
            session.execute_script("SELECT CLOSED COUNT(*) AS n FROM S")

    def test_close_is_idempotent(self):
        db = make_db()
        session = db.connect()
        session.close()
        session.close()
        assert session.closed

    def test_other_sessions_unaffected(self):
        db = make_db()
        first, second = db.connect(), db.connect()
        first.close()
        assert second.execute("SELECT CLOSED COUNT(*) AS n FROM S").scalar() == 100

    def test_spawn_index_assigned_in_connect_order(self):
        db = make_db()
        assert [db.connect().spawn_index for _ in range(3)] == [0, 1, 2]
        assert db.session.spawn_index is None  # root session is not spawned


class TestEngineShutdown:
    def test_shutdown_is_idempotent_and_fences_statements(self):
        db = make_db()
        session = db.connect()
        db.engine.shutdown()
        db.engine.shutdown()
        assert db.engine.closed
        with pytest.raises(SessionClosedError):
            session.execute("SELECT CLOSED COUNT(*) AS n FROM S")
        with pytest.raises(SessionClosedError):
            db.engine.connect()

    def test_database_context_manager(self):
        with make_db() as db:
            assert db.execute("SELECT CLOSED COUNT(*) AS n FROM S").scalar() == 100
        with pytest.raises(SessionClosedError):
            db.execute("SELECT CLOSED COUNT(*) AS n FROM S")
        db.close()  # idempotent
