"""End-to-end tests for the network service layer.

Covers the acceptance criteria: 32 concurrent clients receive results
bit-identical to in-process ``session.execute()`` (including OPEN queries
under fixed seeds, matched by session spawn index), every ``MosaicError``
subclass re-raises client-side over a real socket, and the operational
envelope — cancellation, per-query timeout, connection limit, pipeline
backpressure, graceful shutdown draining in-flight queries.
"""

import socket
import threading
import time

import pytest

from repro import MosaicDB
from repro.catalog.metadata import Marginal
from repro.engine.open_world import IPFSynthesizer, OpenQueryConfig
from repro.errors import (
    MosaicError,
    ProtocolError,
    QueryCancelledError,
    QueryTimeoutError,
    ServerError,
    SessionClosedError,
    SqlSyntaxError,
    UnknownRelationError,
)
from repro.client import Client, Connection
from repro.server import protocol
from repro.server.server import MosaicServer

from test_protocol import all_mosaic_error_types, make_instance

CLOSED_SQL = "SELECT CLOSED country, COUNT(*) AS n FROM S GROUP BY country"
SEMI_SQL = (
    "SELECT SEMI-OPEN country, email, COUNT(*) AS n "
    "FROM EuropeMigrants GROUP BY country, email"
)
OPEN_SQL = (
    "SELECT OPEN country, email, COUNT(*) AS n "
    "FROM EuropeMigrants GROUP BY country, email"
)


def build_tiny_db(seed: int = 0) -> MosaicDB:
    """Migrants-style database small enough for fast OPEN queries."""
    db = MosaicDB(
        seed=seed,
        open_config=OpenQueryConfig(
            generator_factory=IPFSynthesizer, repetitions=3
        ),
    )
    db.execute_script(
        """
        CREATE GLOBAL POPULATION EuropeMigrants (country TEXT, email TEXT);
        CREATE SAMPLE S AS (SELECT * FROM EuropeMigrants);
        """
    )
    db.register_marginal(
        "M1", "EuropeMigrants", Marginal(["country"], {("UK",): 700, ("FR",): 300})
    )
    db.register_marginal(
        "M2", "EuropeMigrants", Marginal(["email"], {("Yahoo",): 600, ("AOL",): 400})
    )
    db.ingest_rows("S", [("UK", "Yahoo")] * 60 + [("FR", "Yahoo")] * 40)
    return db


def assert_results_identical(received, expected, compare_notes=True):
    assert received.visibility == expected.visibility
    assert received.sample_name == expected.sample_name
    if compare_notes:
        assert received.notes == expected.notes
    assert received.columns == expected.columns
    assert received.num_rows == expected.num_rows
    for name in expected.columns:
        mine, theirs = received.column(name), expected.column(name)
        if mine.dtype == object:
            assert list(mine) == list(theirs)
        else:
            # Bit-for-bit, not approximately: the wire ships raw buffers.
            assert mine.tobytes() == theirs.tobytes()


@pytest.fixture()
def tiny_server():
    db = build_tiny_db()
    server = MosaicServer(
        db.engine, port=0, session_config=db.session.config
    ).start_in_thread()
    try:
        yield server, db
    finally:
        server.stop_in_thread()


class TestSmoke:
    def test_ddl_insert_select_over_the_wire(self, tiny_server):
        server, _ = tiny_server
        with Connection("127.0.0.1", server.port) as conn:
            results = conn.execute_script(
                """
                CREATE TEMPORARY TABLE T (name TEXT, n INT);
                INSERT INTO T VALUES ('a', 1), ('b', 2), ('a', 3);
                """
            )
            assert len(results) == 2
            result = conn.execute(
                "SELECT name, SUM(n) AS total FROM T GROUP BY name"
            )
            assert result.rows() == [("a", 4), ("b", 2)]
            conn.execute("DROP TABLE T")

    def test_stats_frame(self, tiny_server):
        server, _ = tiny_server
        with Client("127.0.0.1", server.port, pool_size=1) as client:
            client.execute(CLOSED_SQL)
            stats = client.stats()
        assert stats["server"]["connections"] == 1
        assert stats["server"]["queries_total"] >= 1
        assert "plans" in stats["engine"]

    def test_default_visibility_hello_option(self, tiny_server):
        server, _ = tiny_server
        sql = "SELECT country, COUNT(*) AS n FROM EuropeMigrants GROUP BY country"
        with Connection("127.0.0.1", server.port) as conn:
            assert conn.execute(sql).visibility == "SEMI-OPEN"  # template default
        with Connection(
            "127.0.0.1", server.port, options={"default_visibility": "CLOSED"}
        ) as conn:
            assert conn.execute(sql).visibility == "CLOSED"


class TestBitIdentity:
    """The acceptance bar: wire results == in-process results, per session."""

    CLIENTS = 32

    def test_sequential_client_is_fully_identical(self, tiny_server):
        # One client against a fresh server engine vs. session 0 of an
        # identically seeded in-process engine: everything matches, the
        # execution-trail notes included (cache states evolve in lockstep).
        server, _ = tiny_server
        reference_session = build_tiny_db().connect()
        with Connection("127.0.0.1", server.port) as conn:
            assert conn.session_index == 0
            for sql in (CLOSED_SQL, SEMI_SQL, OPEN_SQL, CLOSED_SQL):
                assert_results_identical(
                    conn.execute(sql), reference_session.execute(sql)
                )

    def test_32_concurrent_clients_match_in_process_sessions(self, tiny_server):
        server, _ = tiny_server
        reference_db = build_tiny_db()  # identical catalog, identical seed
        reference = []
        for _ in range(self.CLIENTS):
            session = reference_db.connect()
            reference.append(
                {
                    "closed": session.execute(CLOSED_SQL),
                    "semi": session.execute(SEMI_SQL),
                    "open": session.execute(OPEN_SQL),
                }
            )

        outcomes: dict[int, dict] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(self.CLIENTS)

        def worker():
            try:
                with Connection("127.0.0.1", server.port) as conn:
                    barrier.wait()
                    outcomes[conn.session_index] = {
                        "closed": conn.execute(CLOSED_SQL),
                        "semi": conn.execute(SEMI_SQL),
                        "open": conn.execute(OPEN_SQL),
                    }
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert sorted(outcomes) == list(range(self.CLIENTS))
        for index, got in outcomes.items():
            for key in ("closed", "semi", "open"):
                # Data, visibility and backing sample must be bit-identical;
                # notes are excluded here because cache hit/miss annotations
                # legitimately depend on 32-way interleaving.
                assert_results_identical(
                    got[key], reference[index][key], compare_notes=False
                )


@pytest.fixture()
def slow_server():
    """A server whose engine sleeps when the query mentions 'slow'."""
    db = build_tiny_db()
    engine = db.engine
    real_execute = engine.execute

    def sleepy_execute(sql, session):
        if "slow" in sql:
            time.sleep(0.4)
        return real_execute(sql, session)

    engine.execute = sleepy_execute
    server = MosaicServer(
        db.engine, port=0, session_config=db.session.config
    ).start_in_thread()
    try:
        yield server
    finally:
        server.stop_in_thread()


SLOW_SQL = "SELECT CLOSED COUNT(*) AS n FROM S WHERE country = 'slow'"


def raw_connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port))
    protocol.write_frame(
        sock,
        protocol.HELLO,
        0,
        protocol.json_payload(
            {"magic": protocol.MAGIC, "version": protocol.PROTOCOL_VERSION}
        ),
    )
    frame_type, _, _ = protocol.read_frame(sock)
    assert frame_type == protocol.WELCOME
    return sock


class TestCancellation:
    def test_cancel_queued_query(self, slow_server):
        sock = raw_connect(slow_server.port)
        try:
            # The slow query takes the per-connection execution slot; the
            # victim queues behind it and is cancelled while waiting.
            protocol.write_frame(sock, protocol.QUERY, 1, SLOW_SQL.encode())
            time.sleep(0.05)
            protocol.write_frame(sock, protocol.QUERY, 2, CLOSED_SQL.encode())
            protocol.write_frame(
                sock, protocol.CANCEL, 3, (2).to_bytes(4, "little")
            )
            responses = {}
            for _ in range(2):
                frame_type, request_id, payload = protocol.read_frame(sock)
                responses[request_id] = (frame_type, payload)
        finally:
            sock.close()
        assert responses[1][0] == protocol.RESULT
        frame_type, payload = responses[2]
        assert frame_type == protocol.ERROR
        assert isinstance(protocol.decode_error(payload), QueryCancelledError)

    def test_cancel_unknown_request_is_a_noop(self, slow_server):
        sock = raw_connect(slow_server.port)
        try:
            protocol.write_frame(
                sock, protocol.CANCEL, 1, (99).to_bytes(4, "little")
            )
            protocol.write_frame(sock, protocol.QUERY, 2, CLOSED_SQL.encode())
            frame_type, request_id, _ = protocol.read_frame(sock)
            assert (frame_type, request_id) == (protocol.RESULT, 2)
        finally:
            sock.close()


class TestBackpressureAndLimits:
    def test_pipeline_depth_backpressure(self):
        db = build_tiny_db()
        engine = db.engine
        real_execute = engine.execute

        def sleepy_execute(sql, session):
            if "slow" in sql:
                time.sleep(0.3)
            return real_execute(sql, session)

        engine.execute = sleepy_execute
        server = MosaicServer(db.engine, port=0, pipeline_depth=1).start_in_thread()
        try:
            sock = raw_connect(server.port)
            try:
                protocol.write_frame(sock, protocol.QUERY, 1, SLOW_SQL.encode())
                time.sleep(0.05)
                protocol.write_frame(sock, protocol.QUERY, 2, CLOSED_SQL.encode())
                responses = {}
                for _ in range(2):
                    frame_type, request_id, payload = protocol.read_frame(sock)
                    responses[request_id] = (frame_type, payload)
            finally:
                sock.close()
            # The overflowing query is refused immediately with a SERVER
            # error; the in-flight one still completes.
            frame_type, payload = responses[2]
            assert frame_type == protocol.ERROR
            refusal = protocol.decode_error(payload)
            assert isinstance(refusal, ServerError)
            assert "pipeline depth" in str(refusal)
            assert responses[1][0] == protocol.RESULT
        finally:
            server.stop_in_thread()

    def test_duplicate_request_id_refused(self, slow_server):
        sock = raw_connect(slow_server.port)
        try:
            protocol.write_frame(sock, protocol.QUERY, 7, SLOW_SQL.encode())
            time.sleep(0.05)
            protocol.write_frame(sock, protocol.QUERY, 7, CLOSED_SQL.encode())
            # The duplicate is refused immediately; the original still
            # answers once the slow query completes.
            first_type, first_id, first_payload = protocol.read_frame(sock)
            assert (first_type, first_id) == (protocol.ERROR, 7)
            refusal = protocol.decode_error(first_payload)
            assert isinstance(refusal, ProtocolError)
            assert "already in flight" in str(refusal)
            second_type, second_id, _ = protocol.read_frame(sock)
            assert (second_type, second_id) == (protocol.RESULT, 7)
        finally:
            sock.close()

    def test_connection_limit_refused_with_error(self):
        db = build_tiny_db()
        server = MosaicServer(db.engine, port=0, max_connections=1).start_in_thread()
        try:
            with Connection("127.0.0.1", server.port):
                with pytest.raises(ServerError, match="connection limit"):
                    Connection("127.0.0.1", server.port)
        finally:
            server.stop_in_thread()

    def test_bad_magic_rejected(self, tiny_server):
        server, _ = tiny_server
        sock = socket.create_connection(("127.0.0.1", server.port))
        try:
            protocol.write_frame(
                sock,
                protocol.HELLO,
                0,
                protocol.json_payload({"magic": "nope", "version": 1}),
            )
            frame_type, _, payload = protocol.read_frame(sock)
            assert frame_type == protocol.ERROR
            assert isinstance(protocol.decode_error(payload), ProtocolError)
        finally:
            sock.close()

    def test_version_1_hello_rejected(self, tiny_server):
        server, _ = tiny_server
        sock = socket.create_connection(("127.0.0.1", server.port))
        try:
            protocol.write_frame(
                sock,
                protocol.HELLO,
                0,
                protocol.json_payload({"magic": protocol.MAGIC, "version": 1}),
            )
            frame_type, _, payload = protocol.read_frame(sock)
            assert frame_type == protocol.ERROR
            error = protocol.decode_error(payload)
            assert isinstance(error, ProtocolError)
            assert "unsupported protocol version 1" in str(error)
        finally:
            sock.close()

    def test_unknown_frame_type_reported(self, tiny_server):
        server, _ = tiny_server
        sock = raw_connect(server.port)
        try:
            protocol.write_frame(sock, 0x7F, 9, b"")
            frame_type, request_id, payload = protocol.read_frame(sock)
            assert (frame_type, request_id) == (protocol.ERROR, 9)
            assert isinstance(protocol.decode_error(payload), ProtocolError)
        finally:
            sock.close()


class TestTimeout:
    def test_query_timeout_then_connection_still_usable(self):
        db = build_tiny_db()
        engine = db.engine
        real_execute = engine.execute

        def sleepy_execute(sql, session):
            if "slow" in sql:
                time.sleep(0.4)
            return real_execute(sql, session)

        engine.execute = sleepy_execute
        server = MosaicServer(
            db.engine, port=0, session_config=db.session.config, query_timeout=0.1
        ).start_in_thread()
        try:
            with Connection("127.0.0.1", server.port) as conn:
                with pytest.raises(QueryTimeoutError):
                    conn.execute(SLOW_SQL)
                # The zombie query finishes in the background holding the
                # per-connection order; the next query waits, then runs.
                result = conn.execute(CLOSED_SQL)
                assert result.num_rows == 2
        finally:
            server.stop_in_thread()


class TestShutdown:
    def test_graceful_shutdown_drains_in_flight_query(self, slow_server):
        received = {}

        def client_thread():
            with Connection("127.0.0.1", slow_server.port) as conn:
                received["result"] = conn.execute(SLOW_SQL)

        thread = threading.Thread(target=client_thread)
        thread.start()
        time.sleep(0.15)  # let the slow query reach the executor
        slow_server.stop_in_thread(drain_timeout=5.0)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert received["result"].num_rows == 1  # COUNT over zero matches
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", slow_server.port), timeout=0.5)

    def test_server_owned_engine_shuts_down(self):
        db = build_tiny_db()
        server = MosaicServer(
            db.engine, port=0, shutdown_engine=True
        ).start_in_thread()
        server.stop_in_thread()
        assert db.engine.closed
        with pytest.raises(SessionClosedError):
            db.execute(CLOSED_SQL)


class TestErrorTransport:
    """Satellite: every MosaicError subclass crosses a *real* socket."""

    @pytest.fixture(scope="class")
    def raising_server(self):
        db = build_tiny_db()
        engine = db.engine
        instances = {
            f"RAISE {cls.__name__}": make_instance(cls)
            for cls in all_mosaic_error_types()
        }
        real_execute = engine.execute

        def raising_execute(sql, session):
            exc = instances.get(sql)
            if exc is not None:
                raise exc
            return real_execute(sql, session)

        engine.execute = raising_execute
        server = MosaicServer(db.engine, port=0).start_in_thread()
        try:
            with Connection("127.0.0.1", server.port) as conn:
                yield conn, instances
        finally:
            server.stop_in_thread()

    @pytest.mark.parametrize(
        "cls", all_mosaic_error_types(), ids=lambda c: c.__name__
    )
    def test_error_round_trip(self, raising_server, cls):
        conn, instances = raising_server
        original = instances[f"RAISE {cls.__name__}"]
        with pytest.raises(MosaicError) as excinfo:
            conn.execute(f"RAISE {cls.__name__}")
        assert type(excinfo.value) is cls
        assert str(excinfo.value) == str(original)

    def test_real_engine_error_keeps_attributes(self, tiny_server):
        server, _ = tiny_server
        with Connection("127.0.0.1", server.port) as conn:
            with pytest.raises(UnknownRelationError) as excinfo:
                conn.execute("SELECT CLOSED COUNT(*) AS n FROM Ghost")
            assert excinfo.value.name == "Ghost"

    @pytest.mark.parametrize("literal", ["1.5", "1e3"])
    def test_non_integer_limit_arrives_as_a_syntax_error(self, tiny_server, literal):
        server, _ = tiny_server
        with Connection("127.0.0.1", server.port) as conn:
            with pytest.raises(SqlSyntaxError) as excinfo:
                conn.execute(f"SELECT CLOSED country FROM EuropeMigrants LIMIT {literal}")
            assert (excinfo.value.line, excinfo.value.column) == (1, 49)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT CLOSED country FROM EuropeMigrants WHERE country = ²",
            "INSERT INTO EuropeMigrants VALUES (²)",
        ],
    )
    def test_non_decimal_digit_arrives_as_a_syntax_error(self, tiny_server, sql):
        server, _ = tiny_server
        with Connection("127.0.0.1", server.port) as conn:
            with pytest.raises(SqlSyntaxError, match="unexpected character") as excinfo:
                conn.execute(sql)
            assert (excinfo.value.line, excinfo.value.column) == (1, sql.index("²") + 1)

    def test_cancelled_flag_has_wire_type(self):
        # QueryCancelledError reaches clients through the same transport.
        from repro.errors import error_from_wire, error_to_wire

        code, message, data = error_to_wire(QueryCancelledError("gone"))
        assert type(error_from_wire(code, message, data)) is QueryCancelledError


class TestClientPool:
    def test_pool_reuses_connections_across_threads(self, tiny_server):
        server, _ = tiny_server
        with Client("127.0.0.1", server.port, pool_size=2) as client:
            errors: list[Exception] = []

            def worker():
                try:
                    for _ in range(5):
                        assert client.execute(CLOSED_SQL).num_rows == 2
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors
            assert client._created <= 2

    def test_mosaic_errors_do_not_poison_the_pool(self, tiny_server):
        server, _ = tiny_server
        with Client("127.0.0.1", server.port, pool_size=1) as client:
            with pytest.raises(UnknownRelationError):
                client.execute("SELECT CLOSED COUNT(*) AS n FROM Ghost")
            # Same pooled connection, still healthy.
            assert client.execute(CLOSED_SQL).num_rows == 2
            assert client._created == 1

    def test_blocked_waiter_wakes_on_close(self, tiny_server):
        # A waiter blocked on a fully-borrowed pool must not hang forever
        # when the client is closed underneath it.
        server, _ = tiny_server
        client = Client("127.0.0.1", server.port, pool_size=1)
        borrowed = client._acquire()  # occupy the only slot
        outcome = {}

        def waiter():
            try:
                client.execute(CLOSED_SQL)
            except ProtocolError as exc:
                outcome["exc"] = exc

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.15)
        client.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert "exc" in outcome
        borrowed.close()

    def test_blocked_waiter_dials_after_discard(self, tiny_server):
        # Discarding a broken connection frees a slot, not a queue entry:
        # the blocked waiter must notice and dial a replacement.
        server, _ = tiny_server
        client = Client("127.0.0.1", server.port, pool_size=1)
        borrowed = client._acquire()
        outcome = {}

        def waiter():
            outcome["result"] = client.execute(CLOSED_SQL)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.15)
        client._discard(borrowed)  # as a transport failure would
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert outcome["result"].num_rows == 2
        client.close()

    def test_closed_client_refuses_calls(self, tiny_server):
        server, _ = tiny_server
        client = Client("127.0.0.1", server.port)
        client.execute(CLOSED_SQL)
        client.close()
        with pytest.raises(ProtocolError, match="client is closed"):
            client.execute(CLOSED_SQL)
