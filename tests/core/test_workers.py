"""Morsel-driven multi-process execution: bit-identity, crashes, lifecycle.

The acceptance bar for the worker pool: parallel results are *bit-identical*
to serial execution for CLOSED, SEMI-OPEN, and batched OPEN queries under
fixed seeds (including over the TCP server), a killed worker never hangs a
query (retry on a fresh process or a stable ``WORKER_CRASH`` wire error),
and shutdown unlinks every shared segment idempotently.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import MosaicDB
from repro.catalog.metadata import Marginal
from repro.core.workers import (
    DEFAULT_MORSEL_ROWS,
    ExecutionConfig,
    ParallelExecution,
    _register_crashes,
)
from repro.client import Connection
from repro.engine.open_world import IPFSynthesizer, OpenQueryConfig
from repro.errors import (
    SessionClosedError,
    WorkerCrashError,
    error_from_wire,
    error_to_wire,
)
from repro.relational.dtypes import DType
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.server.server import MosaicServer

ROWS = 12_000
MORSEL_ROWS = 1024

#: Engines whose pool wedged mid-batch (regression only): kept alive so
#: their finalizers never run — a finalizer would block on the held pool
#: lock and turn a clean failure into a session hang.
_WEDGED_ENGINES: list = []

CLOSED_SQL = (
    "SELECT CLOSED country, COUNT(*) AS n, SUM(age) AS s, AVG(score) AS a, "
    "MIN(age) AS mn, MAX(score) AS mx FROM P GROUP BY country ORDER BY country"
)
SEMI_SQL = (
    "SELECT SEMI-OPEN country, email, COUNT(*) AS n, AVG(age) AS a "
    "FROM P GROUP BY country, email ORDER BY country, email"
)
OPEN_SQL = (
    "SELECT OPEN country, email, COUNT(*) AS n "
    "FROM P2 GROUP BY country, email ORDER BY country, email"
)


def big_relation(rows: int = ROWS) -> Relation:
    rng = np.random.default_rng(42)
    countries = ["DE", "FR", "UK"]
    emails = ["AOL", "GMX", "Yahoo"]
    schema = Schema.of(
        country=DType.TEXT, email=DType.TEXT, age=DType.INT, score=DType.FLOAT
    )
    return Relation.from_columns(
        schema,
        {
            "country": [countries[i] for i in rng.integers(0, 3, rows)],
            "email": [emails[i] for i in rng.integers(0, 3, rows)],
            "age": rng.integers(18, 80, rows),
            "score": rng.uniform(-10.0, 10.0, rows),
        },
    )


def make_db(processes: int, **execution_kwargs) -> MosaicDB:
    db = MosaicDB(
        seed=0,
        open_config=OpenQueryConfig(
            generator_factory=IPFSynthesizer,
            repetitions=4,
            rows_per_generation=2000,
        ),
        execution=ExecutionConfig(
            processes=processes,
            **{"morsel_rows": MORSEL_ROWS, **execution_kwargs},
        ),
    )
    db.execute_script(
        """
        CREATE GLOBAL POPULATION P
            (country TEXT, email TEXT, age INT, score FLOAT);
        CREATE SAMPLE S AS (SELECT * FROM P);
        CREATE POPULATION P2 AS (SELECT country, email FROM P);
        CREATE SAMPLE S2 AS (SELECT country, email FROM P2);
        """
    )
    db.register_marginal(
        "P_C", "P", Marginal(["country"], {("DE",): 5000, ("FR",): 3000, ("UK",): 4000})
    )
    db.register_marginal(
        "P_E", "P", Marginal(["email"], {("AOL",): 2000, ("GMX",): 4000, ("Yahoo",): 6000})
    )
    # P2 is the categorical projection OPEN queries generate against
    # (IPFSynthesizer needs a small cross-product domain).
    db.register_marginal(
        "P2_C", "P2", Marginal(["country"], {("DE",): 5000, ("FR",): 3000, ("UK",): 4000})
    )
    db.register_marginal(
        "P2_E", "P2", Marginal(["email"], {("AOL",): 2000, ("GMX",): 4000, ("Yahoo",): 6000})
    )
    data = big_relation()
    db.ingest_relation("S", data)
    db.ingest_relation("S2", data.project(["country", "email"]))
    return db


def assert_identical(received: Relation, expected: Relation) -> None:
    assert list(received.column_names) == list(expected.column_names)
    assert received.num_rows == expected.num_rows
    for name in expected.column_names:
        mine, theirs = received.column(name), expected.column(name)
        assert mine.dtype == theirs.dtype, name
        if mine.dtype == object:
            assert list(mine) == list(theirs), name
        else:
            assert mine.tobytes() == theirs.tobytes(), name


class TestBitIdentity:
    @pytest.mark.parametrize("sql", [CLOSED_SQL, SEMI_SQL, OPEN_SQL])
    def test_parallel_matches_serial(self, sql):
        serial_db = make_db(processes=0)
        try:
            reference = serial_db.execute(sql).relation
        finally:
            serial_db.close()
        for processes in (1, 2):
            db = make_db(processes=processes)
            try:
                result = db.execute(sql).relation
                stats = db.engine.execution.stats()
                assert stats["parallel_batches"] >= 1, (processes, sql)
                assert_identical(result, reference)
            finally:
                db.close()

    def test_open_shards_ride_the_pool(self):
        db = make_db(processes=2)
        try:
            result = db.execute(OPEN_SQL)
            assert any("sharded across the worker pool" in n for n in result.notes)
        finally:
            db.close()

    def test_repeated_parallel_queries_reuse_segments(self):
        db = make_db(processes=2)
        try:
            first = db.execute(CLOSED_SQL).relation
            second = db.execute(CLOSED_SQL).relation
            assert_identical(second, first)
            assert db.engine.execution.stats()["segment_reuses"] >= 1
        finally:
            db.close()


class TestPipeFlowControl:
    def test_high_cardinality_results_do_not_deadlock(self):
        """Partials larger than the pipe buffer must not wedge a batch.

        Every row is its own group, so each per-morsel partial carries
        O(30k)-cell arrays (hundreds of KB — far beyond the ~64KB pipe
        buffer) and the descriptor's vocab is ~30k strings.  A dispatch
        that queued every task (each once carrying that vocab) before
        reading any result deadlocked here: the worker blocked sending a
        partial while the parent blocked sending tasks, and the batch
        deadline never fired.  Flow-controlled dispatch must finish —
        with answers identical to the serial engine.
        """
        rows = 30_000
        db = MosaicDB(
            seed=0,
            execution=ExecutionConfig(
                processes=1, morsel_rows=2048, worker_timeout=60.0
            ),
        )
        serial_db = MosaicDB(
            seed=0, execution=ExecutionConfig(processes=0, morsel_rows=2048)
        )
        ddl = """
            CREATE GLOBAL POPULATION P (k TEXT);
            CREATE SAMPLE S AS (SELECT * FROM P);
        """
        data = Relation.from_columns(
            Schema.of(k=DType.TEXT), {"k": [f"k{i:05d}" for i in range(rows)]}
        )
        sql = "SELECT CLOSED k, COUNT(*) AS n FROM P GROUP BY k ORDER BY k"
        deadlocked = False
        try:
            for engine in (db, serial_db):
                engine.execute_script(ddl)
                engine.ingest_relation("S", data)
            outcome: dict = {}

            def run():
                try:
                    outcome["relation"] = db.execute(sql).relation
                except BaseException as exc:  # pragma: no cover - fail path
                    outcome["error"] = exc

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            thread.join(timeout=120)
            deadlocked = thread.is_alive()
            if not deadlocked:
                assert "error" not in outcome, outcome.get("error")
                assert db.engine.execution.stats()["parallel_batches"] >= 1
                assert_identical(
                    outcome["relation"], serial_db.execute(sql).relation
                )
        finally:
            serial_db.close()
            if not deadlocked:
                db.close()
            else:  # closing (or even GC-finalizing) a wedged engine hangs
                _WEDGED_ENGINES.append(db)
        assert not deadlocked, "parallel batch deadlocked"


class TestBitIdentityOverTcp:
    def test_wire_results_match_serial_engine(self):
        serial_db, parallel_db = make_db(processes=0), make_db(processes=2)
        serial = MosaicServer(
            serial_db.engine, port=0, session_config=serial_db.session.config
        ).start_in_thread()
        parallel = MosaicServer(
            parallel_db.engine, port=0, session_config=parallel_db.session.config
        ).start_in_thread()
        try:
            with Connection("127.0.0.1", serial.port) as reference_conn:
                with Connection("127.0.0.1", parallel.port) as parallel_conn:
                    for sql in (CLOSED_SQL, SEMI_SQL, OPEN_SQL):
                        expected = reference_conn.execute(sql)
                        received = parallel_conn.execute(sql)
                        assert_identical(received.relation, expected.relation)
            assert parallel_db.engine.execution.stats()["parallel_batches"] >= 1
        finally:
            serial.stop_in_thread()
            parallel.stop_in_thread()


class TestFallbacks:
    def test_small_relations_never_touch_the_pool(self):
        db = make_db(processes=2, morsel_rows=DEFAULT_MORSEL_ROWS)
        try:
            db.execute(CLOSED_SQL)
            stats = db.engine.execution.stats()
            assert stats["parallel_batches"] == 0
            assert stats["local_batches"] == 0
        finally:
            db.close()

    def test_unencoded_group_key_falls_back_in_process(self):
        # GROUP BY a numeric column has no storage encoding, so the plan
        # cannot be morsel-decomposed; it must fall back (and still answer
        # exactly like a serial engine).
        sql = "SELECT CLOSED age, COUNT(*) AS n FROM P GROUP BY age ORDER BY age"
        serial_db, db = make_db(processes=0), make_db(processes=2)
        try:
            assert_identical(
                db.execute(sql).relation, serial_db.execute(sql).relation
            )
            assert db.engine.execution.stats()["plan_fallbacks"] >= 1
        finally:
            serial_db.close()
            db.close()


class TestWorkerCrash:
    def test_killed_worker_is_respawned_and_query_retried(self):
        db = make_db(processes=2)
        try:
            reference = db.execute(CLOSED_SQL).relation
            pids = db.engine.execution.worker_pids()
            assert len(pids) == 2
            os.kill(pids[0], signal.SIGKILL)
            result = db.execute(CLOSED_SQL).relation
            assert_identical(result, reference)
            stats = db.engine.execution.stats()
            assert stats["worker_restarts"] >= 1
            survivors = db.engine.execution.worker_pids()
            assert len(survivors) == 2 and pids[0] not in survivors
        finally:
            db.close()

    def test_exhausted_retries_raise_stable_error_not_hang(self):
        db = make_db(processes=2, max_task_retries=0)
        try:
            db.execute(CLOSED_SQL)  # spin the pool up
            for pid in db.engine.execution.worker_pids():
                os.kill(pid, signal.SIGKILL)
            started = time.monotonic()
            with pytest.raises(WorkerCrashError):
                db.execute(CLOSED_SQL)
            assert time.monotonic() - started < 30  # failed fast, no hang
        finally:
            db.close()

    def test_engine_respawns_pool_after_failed_batch(self):
        # A batch that exhausts the retry budget terminates the pool; the
        # engine must discard it so the *next* query respawns a fresh one
        # and answers normally — not raise "worker pool is not running"
        # until restart.
        db = make_db(processes=2, max_task_retries=0)
        try:
            reference = db.execute(CLOSED_SQL).relation
            for pid in db.engine.execution.worker_pids():
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError):
                db.execute(CLOSED_SQL)
            before = db.engine.execution.stats()["parallel_batches"]
            result = db.execute(CLOSED_SQL).relation
            assert_identical(result, reference)
            stats = db.engine.execution.stats()
            assert stats["parallel_batches"] == before + 1
            assert stats["worker_restarts"] >= 1  # survives the pool swap
            assert len(db.engine.execution.worker_pids()) == 2
        finally:
            db.close()

    def test_retry_budget_counts_crashes_per_task(self):
        # max_task_retries=N must allow N re-runs after the first crash,
        # not collapse to one (a flat "already retried" set did that).
        crashes: dict[int, int] = {}
        assert _register_crashes(crashes, {7: {}}, 2) == []
        assert _register_crashes(crashes, {7: {}}, 2) == []
        assert _register_crashes(crashes, {7: {}}, 2) == [7]
        assert _register_crashes({}, {1: {}, 2: {}}, 0) == [1, 2]
        assert _register_crashes({3: 1}, {3: {}, 4: {}}, 1) == [3]

    def test_worker_crash_error_has_stable_wire_code(self):
        code, message, data = error_to_wire(WorkerCrashError("worker died"))
        assert code == "WORKER_CRASH"
        rebuilt = error_from_wire(code, message, data)
        assert type(rebuilt) is WorkerCrashError
        assert str(rebuilt) == "worker died"

    def test_engine_usable_after_crash_recovery(self):
        db = make_db(processes=2)
        try:
            db.execute(CLOSED_SQL)
            os.kill(db.engine.execution.worker_pids()[1], signal.SIGKILL)
            first = db.execute(SEMI_SQL).relation
            second = db.execute(SEMI_SQL).relation
            assert_identical(second, first)
        finally:
            db.close()


class TestLifecycle:
    def test_shutdown_stops_workers_and_unlinks_segments(self):
        db = make_db(processes=2)
        db.execute(CLOSED_SQL)
        execution = db.engine.execution
        pids = execution.worker_pids()
        assert execution.stats()["live_segments"] >= 1
        db.close()
        assert execution.stats()["live_segments"] == 0
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if not any(_alive(pid) for pid in pids):
                break
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in pids)

    def test_shutdown_is_idempotent(self):
        db = make_db(processes=2)
        db.execute(CLOSED_SQL)
        db.engine.shutdown()
        db.engine.shutdown()
        assert db.engine.execution.closed
        with pytest.raises(SessionClosedError):
            db.execute(CLOSED_SQL)

    def test_serial_engine_never_starts_processes(self):
        db = make_db(processes=0)
        try:
            db.execute(CLOSED_SQL)
            assert db.engine.execution.worker_pids() == []
            stats = db.engine.execution.stats()
            assert stats["local_batches"] >= 1
        finally:
            db.close()


class TestExecutionConfig:
    def test_env_workers(self, monkeypatch):
        monkeypatch.setenv("MOSAIC_WORKERS", "3")
        assert ExecutionConfig().resolved_processes() == 3
        assert ExecutionConfig(processes=1).resolved_processes() == 1
        monkeypatch.setenv("MOSAIC_WORKERS", "junk")
        assert ExecutionConfig().resolved_processes() == 0

    def test_env_morsel_rows(self, monkeypatch):
        monkeypatch.delenv("MOSAIC_MORSEL_ROWS", raising=False)
        assert ExecutionConfig().resolved_morsel_rows() == DEFAULT_MORSEL_ROWS
        monkeypatch.setenv("MOSAIC_MORSEL_ROWS", "2048")
        assert ExecutionConfig().resolved_morsel_rows() == 2048

    def test_threaded_parent_never_defaults_to_fork(self):
        # Pools spawn lazily, typically after the engine's OPEN thread
        # pool or server threads exist; forking a multithreaded parent
        # can deadlock the child, so the default must avoid it (explicit
        # opt-in still honored).
        release = threading.Event()
        thread = threading.Thread(target=release.wait, daemon=True)
        thread.start()
        try:
            assert ExecutionConfig().resolved_start_method() != "fork"
            assert (
                ExecutionConfig(start_method="fork").resolved_start_method()
                == "fork"
            )
        finally:
            release.set()
            thread.join()

    def test_context_without_pool_is_cheap_and_closable(self):
        context = ParallelExecution(ExecutionConfig(processes=0))
        assert context.processes == 0
        context.shutdown()
        context.shutdown()
        assert context.closed


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    return True
