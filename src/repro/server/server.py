""":class:`MosaicServer`: the asyncio TCP service over a shared Engine.

Threading model (see ``ARCHITECTURE.md`` §5): the asyncio event loop owns
every socket — it accepts connections, reads frames, and writes responses
— while blocking query execution is bridged onto a bounded
``ThreadPoolExecutor`` via ``run_in_executor``, so the loop keeps
accepting connections and CANCEL frames while an OPEN query trains a
generator.  Inside the executor a query is ordinary
:meth:`Session.execute`, which takes the engine's readers-writer lock
exactly as in-process callers do; the server adds no locking of its own
around the engine.

Each connection gets one :class:`~repro.core.session.Session`
(``engine.connect()`` at handshake), and its queries execute **serially**
(a per-connection asyncio lock): a session is not a concurrency unit, and
serial execution keeps the session RNG stream — and therefore OPEN
answers — deterministic per connection.  Concurrency comes from many
connections, exactly like in-process threading comes from many sessions.

Backpressure is layered: ``max_connections`` refuses sockets beyond the
cap (with an ERROR frame, so clients see *why*), ``pipeline_depth`` bounds
the frames a single connection may leave in flight, the executor bounds
concurrent query threads (excess queries queue), and response writes
``await drain()`` so a slow reader stalls its own connection only.
"""

from __future__ import annotations

import asyncio
import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Any

import os

from repro import __version__
from repro.core.engine import Engine
from repro.core.session import Session, SessionConfig
from repro.core.visibility import Visibility
from repro.observability import MetricsExporter, MetricsRegistry
from repro.observability.trace import maybe_trace
from repro.errors import (
    MosaicError,
    ProtocolError,
    QueryCancelledError,
    QueryTimeoutError,
    ServerError,
)
from repro.server import protocol
from repro.sql.ast_nodes import Insert


class _Pending:
    """Cancellation flag for one in-flight request."""

    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False


class _Connection:
    """Per-socket state: the session, in-flight requests, write path."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.session: Session | None = None
        self.inflight: dict[int, _Pending] = {}
        self.pending = 0
        # Serializes query execution per connection: the session RNG (and
        # with it OPEN determinism) depends on statement order.
        self.execute_lock = asyncio.Lock()

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        if not self.writer.is_closing():
            self.writer.close()


class MosaicServer:
    """A TCP server exposing one :class:`Engine` to network clients.

    ``engine`` may be an :class:`Engine` or a
    :class:`~repro.core.database.MosaicDB` (its engine is used).
    ``session_config`` is the template for per-connection sessions — each
    connection gets an independent deep-enough copy (the OPEN config is
    replaced, so one client's generator choice never leaks into
    another's).  ``query_timeout`` bounds wall-clock execution per query;
    the executor thread cannot be killed, so a timed-out query finishes in
    the background with its result discarded.
    """

    def __init__(
        self,
        engine: Engine | Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        session_config: SessionConfig | None = None,
        max_connections: int = 64,
        executor_workers: int | None = None,
        query_timeout: float | None = None,
        pipeline_depth: int = 32,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        handshake_timeout: float = 10.0,
        shutdown_engine: bool = False,
        shard_id: int | None = None,
        slow_query_ms: float | None = None,
        metrics_port: int | None = None,
    ):
        self.engine: Engine = getattr(engine, "engine", engine)
        self.host = host
        self.port = port
        #: Fleet identity: set when this server runs as one shard of a
        #: sharded fleet (``python -m repro.fleet``).  Surfaced in WELCOME
        #: and stats so routers and operators can tell shards apart.
        self.shard_id = shard_id
        self.session_config = session_config or SessionConfig()
        self.max_connections = max_connections
        self.executor_workers = executor_workers or max(4, (os.cpu_count() or 1) * 2)
        self.query_timeout = query_timeout
        self.pipeline_depth = pipeline_depth
        self.max_frame_bytes = max_frame_bytes
        self.handshake_timeout = handshake_timeout
        self.shutdown_engine = shutdown_engine
        #: Execution times at or above this (ms) are logged to stderr with
        #: the query's trace id; ``None`` disables the slow-query log.
        self.slow_query_ms = slow_query_ms
        #: When set, :meth:`start` serves Prometheus text exposition on
        #: this port (``0`` picks a free one — read ``metrics_exporter.port``).
        self.metrics_port = metrics_port
        self.metrics_exporter: MetricsExporter | None = None

        # Server-level counters live in their own registry (per-server, not
        # per-engine: two servers sharing an engine keep separate request
        # counts) and are merged with the engine's registry in stats() and
        # the Prometheus endpoint.
        self.metrics = MetricsRegistry()
        self._queries_total = self.metrics.counter(
            "mosaic_server_queries_total", help="Query/script frames dispatched"
        )
        self._errors_total = self.metrics.counter(
            "mosaic_server_errors_total", help="Error frames sent to clients"
        )
        self._slow_queries = self.metrics.counter(
            "mosaic_server_slow_queries_total",
            help="Queries at or above the slow_query_ms threshold",
        )
        self._query_ms = self.metrics.histogram(
            "mosaic_server_query_ms", help="Per-query execution time (ms)"
        )
        self.metrics.gauge(
            "mosaic_server_connections",
            help="Currently open client connections",
            fn=lambda: len(self._connections),
        )

        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._connections: set[_Connection] = set()
        self._connection_tasks: set[asyncio.Task] = set()
        self._query_tasks: set[asyncio.Task] = set()
        self._stopping = False
        self._stopped = asyncio.Event()
        # Set by start_in_thread for cross-thread stop scheduling.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "MosaicServer":
        """Bind and start accepting connections (``port=0`` picks a free one)."""
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.executor_workers, thread_name_prefix="mosaic-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None and self.metrics_exporter is None:
            self.metrics_exporter = MetricsExporter(
                self.render_metrics, host=self.host, port=self.metrics_port
            )
            self.metrics_exporter.start()
        return self

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or ``stop_in_thread``) is called."""
        await self._stopped.wait()

    async def stop(self, drain_timeout: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, drain in-flight queries, close.

        In-flight queries get up to ``drain_timeout`` seconds to complete
        and deliver their results; new QUERY frames arriving while
        draining are refused with a ``SERVER`` error frame.  Idempotent.
        """
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [task for task in self._query_tasks if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=drain_timeout)
        for connection in list(self._connections):
            connection.close()
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(*self._connection_tasks, return_exceptions=True)
        if self._executor is not None:
            # No wait: a zombie query past the drain window keeps running
            # on its thread (its done-callback still releases the
            # connection lock), but stop() honours drain_timeout instead
            # of blocking until it finishes.
            self._executor.shutdown(wait=False, cancel_futures=True)
        if self.metrics_exporter is not None:
            self.metrics_exporter.stop()
            self.metrics_exporter = None
        if self.shutdown_engine:
            # Engine.shutdown drains under the engine write lock, so with
            # shutdown_engine=True a still-running zombie statement is
            # waited for here — that is the engine's documented contract.
            self.engine.shutdown()
        self._stopped.set()

    # ------------------------------------------------------------------ #
    # Sync wrappers (benchmarks, examples, blocking callers)
    # ------------------------------------------------------------------ #

    def start_in_thread(self, timeout: float = 30.0) -> "MosaicServer":
        """Run the server on a dedicated event-loop thread; returns when bound."""
        started = threading.Event()
        failures: list[BaseException] = []

        async def main() -> None:
            try:
                await self.start()
            except BaseException as exc:  # pragma: no cover - bind failure
                failures.append(exc)
                raise
            finally:
                started.set()
            await self.serve_forever()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(main()), name="mosaic-server", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout):  # pragma: no cover - startup hang
            raise ServerError("server failed to start within the timeout")
        if failures:  # pragma: no cover - bind failure
            raise ServerError(f"server failed to start: {failures[0]}")
        return self

    def stop_in_thread(self, drain_timeout: float = 10.0, join_timeout: float = 30.0) -> None:
        """Gracefully stop a server started with :meth:`start_in_thread`."""
        if self._thread is None or self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.stop(drain_timeout), self._loop)
        try:
            future.result(timeout=join_timeout)
        except (asyncio.CancelledError, RuntimeError):  # loop already closing
            pass
        self._thread.join(timeout=join_timeout)
        self._thread = None

    # ------------------------------------------------------------------ #
    # Connection handling (event loop)
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
            task.add_done_callback(self._connection_tasks.discard)
        connection = _Connection(reader, writer)
        if self._stopping or len(self._connections) >= self.max_connections:
            await self._refuse(
                connection,
                ServerError(
                    "server is shutting down"
                    if self._stopping
                    else f"connection limit reached ({self.max_connections})"
                ),
            )
            return
        self._connections.add(connection)
        try:
            if not await self._handshake(connection):
                return
            await self._read_loop(connection)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away
        except asyncio.CancelledError:
            raise
        except ProtocolError as exc:
            await self._send_error(connection, 0, exc)
        finally:
            self._connections.discard(connection)
            connection.close()

    async def _handshake(self, connection: _Connection) -> bool:
        try:
            frame_type, request_id, payload = await asyncio.wait_for(
                protocol.read_frame_async(connection.reader, self.max_frame_bytes),
                self.handshake_timeout,
            )
        except asyncio.TimeoutError:
            return False
        if frame_type != protocol.HELLO:
            await self._send_error(
                connection, request_id, ProtocolError("expected a HELLO frame")
            )
            return False
        hello = protocol.parse_json_payload(payload)
        if hello.get("magic") != protocol.MAGIC:
            await self._send_error(
                connection, request_id, ProtocolError("bad magic in HELLO")
            )
            return False
        if hello.get("version") != protocol.PROTOCOL_VERSION:
            await self._send_error(
                connection,
                request_id,
                ProtocolError(
                    f"unsupported protocol version {hello.get('version')!r} "
                    f"(server speaks {protocol.PROTOCOL_VERSION})"
                ),
            )
            return False
        options = hello.get("options") or {}
        try:
            spawn_index = self._spawn_index_option(options)
            connection.session = self.engine.connect(
                self._connection_config(options), spawn_index=spawn_index
            )
        except MosaicError as exc:
            await self._send_error(connection, request_id, exc)
            return False
        await self._send(
            connection,
            protocol.WELCOME,
            request_id,
            protocol.json_payload(
                {
                    "version": protocol.PROTOCOL_VERSION,
                    "server": f"mosaic-repro {__version__}",
                    "session_index": connection.session.spawn_index,
                    # Append-only handshake extension: which fleet shard
                    # this server is (null outside a fleet).
                    "shard_id": self.shard_id,
                }
            ),
        )
        return True

    @staticmethod
    def _spawn_index_option(options: dict) -> int | None:
        """The HELLO ``spawn_index`` option: pin the session's RNG stream.

        The fleet router dials one connection per (logical client, shard)
        and pins them all to the client's index, so every shard replays
        the same session RNG stream as a single-engine reference.
        """
        spawn_index = options.get("spawn_index")
        if spawn_index is None:
            return None
        if isinstance(spawn_index, bool) or not isinstance(spawn_index, int):
            raise ProtocolError('HELLO option "spawn_index" must be an integer')
        if spawn_index < 0:
            raise ProtocolError('HELLO option "spawn_index" must be >= 0')
        return spawn_index

    def _connection_config(self, options: dict) -> SessionConfig:
        # Fresh OPEN config per connection: one client's generator/worker
        # tweaks must not leak into the template or sibling connections.
        config = dataclasses.replace(
            self.session_config,
            open_config=dataclasses.replace(self.session_config.open_config),
        )
        visibility = options.get("default_visibility")
        if visibility is not None:
            config.default_visibility = Visibility.parse(str(visibility))
        open_options = options.get("open")
        if open_options is not None:
            if not isinstance(open_options, dict):
                raise ProtocolError('HELLO option "open" must be an object')
            self._apply_open_options(config.open_config, open_options)
        return config

    #: HELLO "open" keys a connection may tune, with their coercions.
    #: A whitelist, not setattr-from-JSON: generator factories and row
    #: budgets stay server-controlled.
    _OPEN_OPTION_FIELDS = {
        "repetitions": int,
        "tolerance": float,
        "min_repetitions": int,
        "max_repetitions": lambda value: None if value is None else int(value),
        "chunk_repetitions": int,
        "report_ci": bool,
    }

    @classmethod
    def _apply_open_options(cls, open_config, open_options: dict) -> None:
        for key, value in open_options.items():
            coerce = cls._OPEN_OPTION_FIELDS.get(key)
            if coerce is None:
                raise ProtocolError(f'unknown HELLO "open" option {key!r}')
            try:
                setattr(open_config, key, coerce(value))
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    f'bad HELLO "open" option {key!r}: {exc}'
                ) from exc

    async def _read_loop(self, connection: _Connection) -> None:
        while True:
            frame_type, request_id, payload = await protocol.read_frame_async(
                connection.reader, self.max_frame_bytes
            )
            if frame_type in (protocol.QUERY, protocol.SCRIPT, protocol.QUERYX):
                self._dispatch_query(connection, request_id, payload, frame_type)
            elif frame_type == protocol.CANCEL:
                if len(payload) != 4:
                    await self._send_error(
                        connection, request_id, ProtocolError("malformed CANCEL frame")
                    )
                    continue
                target = int.from_bytes(payload, "little")
                record = connection.inflight.get(target)
                # Cancelling an unknown/completed request is a no-op: the
                # response races the CANCEL frame by design.
                if record is not None:
                    record.cancelled = True
            elif frame_type == protocol.STATS:
                await self._send(
                    connection,
                    protocol.STATS_RESULT,
                    request_id,
                    protocol.json_payload(self.stats()),
                )
            elif frame_type == protocol.GOODBYE:
                await self._send(connection, protocol.BYE, request_id)
                return
            else:
                await self._send_error(
                    connection,
                    request_id,
                    ProtocolError(f"unexpected frame type 0x{frame_type:02x}"),
                )

    def _dispatch_query(
        self, connection: _Connection, request_id: int, payload: bytes, frame_type: int
    ) -> None:
        if self._stopping:
            self._fire_and_forget(
                self._send_error(
                    connection, request_id, ServerError("server is shutting down")
                )
            )
            return
        if connection.pending >= self.pipeline_depth:
            self._fire_and_forget(
                self._send_error(
                    connection,
                    request_id,
                    ServerError(
                        f"pipeline depth exceeded ({self.pipeline_depth} queries "
                        "already in flight on this connection)"
                    ),
                )
            )
            return
        if request_id in connection.inflight:
            self._fire_and_forget(
                self._send_error(
                    connection,
                    request_id,
                    ProtocolError(f"request id {request_id} is already in flight"),
                )
            )
            return
        record = _Pending()
        connection.inflight[request_id] = record
        connection.pending += 1
        self._queries_total.inc()
        task = asyncio.get_running_loop().create_task(
            self._run_query(connection, request_id, payload, record, frame_type)
        )
        self._query_tasks.add(task)
        task.add_done_callback(self._query_tasks.discard)

    def _fire_and_forget(self, coroutine) -> None:
        task = asyncio.get_running_loop().create_task(coroutine)
        self._query_tasks.add(task)
        task.add_done_callback(self._query_tasks.discard)

    # ------------------------------------------------------------------ #
    # Query execution (event loop -> executor bridge)
    # ------------------------------------------------------------------ #

    async def _run_query(
        self,
        connection: _Connection,
        request_id: int,
        payload: bytes,
        record: _Pending,
        frame_type: int,
    ) -> None:
        script = frame_type == protocol.SCRIPT
        enqueued = perf_counter()
        try:
            session = connection.session
            assert session is not None
            if frame_type == protocol.QUERYX:
                envelope, sql = protocol.decode_queryx(payload)
                encode = self._extended_call(session, envelope, sql, enqueued)
            else:
                try:
                    sql = payload.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ProtocolError(f"query payload is not UTF-8: {exc}") from exc
                if script:
                    encode = lambda: protocol.encode_result_set(  # noqa: E731
                        session.execute_script(sql)
                    )
                else:
                    encode = self._query_call(session, sql, enqueued)
            body = await self._execute_blocking(connection, record, encode)
            if record.cancelled:
                raise QueryCancelledError(
                    "query was cancelled; it completed anyway and the result "
                    "was discarded"
                )
            if len(body) + protocol.FRAME_OVERHEAD_BYTES > self.max_frame_bytes:
                raise ServerError(
                    f"result payload of {len(body)} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte frame limit; add a LIMIT "
                    "or raise max_frame_bytes on both ends"
                )
            await self._send(
                connection,
                protocol.RESULT_SET if script else protocol.RESULT,
                request_id,
                body,
            )
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            await self._send_error(connection, request_id, exc)
        finally:
            connection.inflight.pop(request_id, None)
            connection.pending -= 1

    def _query_call(self, session: Session, sql: str, enqueued: float):
        """The executor-thread callable for one QUERY frame.

        Runs on the executor: measures the queue-wait (dispatch to thread
        start), execution, and encoding phases, stamps them into the
        result's ``trace`` header when the query was traced, feeds the
        latency histogram, and writes the slow-query log line.
        """

        def encode_query() -> bytes:
            started = perf_counter()
            result = session.execute(sql)
            executed = perf_counter()
            body = self._finish_encode(
                result,
                lambda: protocol.encode_result(result),
                enqueued,
                started,
                executed,
            )
            self._observe_query(sql, result, (executed - started) * 1e3)
            return body

        return encode_query

    def _finish_encode(
        self, result, encode, enqueued: float, started: float, executed: float
    ) -> bytes:
        """Encode ``result``, stamping server phase timings into its trace.

        The ``server`` section is written into ``result.trace`` *before*
        encoding (so it rides the header out), then ``encode_ms`` — only
        measurable after encoding — is spliced in via
        :func:`protocol.replace_header`, which rewrites the header block
        and leaves the column blocks byte-identical.
        """
        if result.trace is None:
            return encode()
        server_phase = {
            "queue_wait_ms": round((started - enqueued) * 1e3, 4),
            "execute_ms": round((executed - started) * 1e3, 4),
        }
        if self.shard_id is not None:
            server_phase["shard_id"] = self.shard_id
        result.trace["server"] = server_phase
        body = encode()
        server_phase["encode_ms"] = round((perf_counter() - executed) * 1e3, 4)
        return protocol.replace_header(body, {"trace": result.trace})

    def _observe_query(self, sql: str, result, execute_ms: float) -> None:
        self._query_ms.observe(execute_ms)
        if self.slow_query_ms is not None and execute_ms >= self.slow_query_ms:
            self._slow_queries.inc()
            trace_id = (result.trace or {}).get("trace_id", "-")
            shard = "" if self.shard_id is None else f" shard={self.shard_id}"
            text = sql if len(sql) <= 200 else sql[:197] + "..."
            print(
                f"mosaic slow query{shard}: {execute_ms:.1f}ms "
                f"trace={trace_id} sql={text!r}",
                file=sys.stderr,
                flush=True,
            )

    def _extended_call(
        self, session: Session, envelope: dict, sql: str, enqueued: float
    ):
        """The executor-thread callable for one QUERYX frame."""
        mode = envelope.get("mode")
        if mode == "partial":

            def encode_partial() -> bytes:
                # Partial (scatter) calls trace under the same sampler so a
                # traced fleet query can stitch shard traces; the trace is
                # created here — not inherited — because run_in_executor
                # does not copy the event loop's context.
                started = perf_counter()
                trace = maybe_trace()
                if trace is None:
                    result, recipe = self.engine.execute_partial(sql, session)
                else:
                    with trace.activate():
                        result, recipe = self.engine.execute_partial(sql, session)
                    trace.finish()
                    result.trace = trace.to_dict()
                executed = perf_counter()
                body = self._finish_encode(
                    result,
                    lambda: protocol.encode_result(
                        result, extra_header={"partial": recipe}
                    ),
                    enqueued,
                    started,
                    executed,
                )
                self._observe_query(sql, result, (executed - started) * 1e3)
                return body

            return encode_partial
        if mode == "insert":
            indices = envelope.get("indices")
            if not isinstance(indices, list) or not all(
                isinstance(index, int) and not isinstance(index, bool) and index >= 0
                for index in indices
            ):
                raise ProtocolError(
                    'QUERYX insert envelope needs "indices": a list of ints >= 0'
                )

            def encode_insert() -> bytes:
                statement = self.engine.parse_sql(sql)
                if not isinstance(statement, Insert):
                    raise ProtocolError(
                        "QUERYX insert mode requires an INSERT statement, got "
                        f"{type(statement).__name__}"
                    )
                rows = statement.rows
                out_of_range = [index for index in indices if index >= len(rows)]
                if out_of_range:
                    raise ProtocolError(
                        f"QUERYX insert index {out_of_range[0]} out of range "
                        f"for {len(rows)} rows"
                    )
                # Re-slice the *parsed* statement: row values never
                # re-serialize (no float round-trips), and the shard
                # applies exactly the indices the router assigned it.
                sliced = dataclasses.replace(
                    statement, rows=tuple(rows[index] for index in indices)
                )
                return protocol.encode_result(session.execute_statement(sliced))

            return encode_insert
        raise ProtocolError(f"unknown QUERYX mode {mode!r}")

    async def _execute_blocking(
        self, connection: _Connection, record: _Pending, encode
    ) -> bytes:
        """Run one statement on the executor, serialized per connection.

        ``encode`` produces the already-encoded response payload: both
        execution and columnar serialization happen on the executor
        thread, so a large result never stalls the event loop.  The
        per-connection lock is held until the executor thread actually
        finishes — even past a timeout — so a zombie query can never
        interleave with its successor on the same session.
        """
        assert self._executor is not None

        def call() -> bytes:
            if record.cancelled:
                raise QueryCancelledError("query cancelled before execution started")
            return encode()

        await connection.execute_lock.acquire()
        if record.cancelled:
            connection.execute_lock.release()
            raise QueryCancelledError("query cancelled while queued")
        loop = asyncio.get_running_loop()
        try:
            future = loop.run_in_executor(self._executor, call)
        except BaseException:
            connection.execute_lock.release()
            raise

        def release(done_future):
            connection.execute_lock.release()
            if not done_future.cancelled():
                done_future.exception()  # mark retrieved for abandoned futures

        future.add_done_callback(release)
        if self.query_timeout is None:
            return await asyncio.shield(future)
        try:
            return await asyncio.wait_for(asyncio.shield(future), self.query_timeout)
        except asyncio.TimeoutError:
            # The thread cannot be killed: flag the record so the eventual
            # result is discarded, and answer the client now.
            record.cancelled = True
            raise QueryTimeoutError(
                f"query exceeded the server's {self.query_timeout}s execution limit"
            ) from None

    # ------------------------------------------------------------------ #
    # Responses
    # ------------------------------------------------------------------ #

    async def _send(
        self,
        connection: _Connection,
        frame_type: int,
        request_id: int,
        payload: bytes = b"",
    ) -> None:
        if connection.writer.is_closing():
            return
        # build_frame returns one bytes object and write() is synchronous,
        # so frames never interleave even across concurrent query tasks;
        # drain() applies transport backpressure per connection.
        connection.writer.write(protocol.build_frame(frame_type, request_id, payload))
        try:
            await connection.writer.drain()
        except ConnectionError:
            pass

    async def _send_error(
        self, connection: _Connection, request_id: int, exc: BaseException
    ) -> None:
        self._errors_total.inc()
        await self._send(
            connection, protocol.ERROR, request_id, protocol.encode_error(exc)
        )

    async def _refuse(self, connection: _Connection, exc: MosaicError) -> None:
        await self._send_error(connection, 0, exc)
        connection.close()

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Server counters plus the engine's cache statistics.

        ``metrics`` is the flat registry snapshot (engine + server
        families merged) — the same numbers the Prometheus endpoint
        renders, exposed to wire clients via :meth:`Client.metrics`.
        """
        return {
            "server": {
                "connections": len(self._connections),
                "max_connections": self.max_connections,
                "active_queries": sum(
                    1 for task in self._query_tasks if not task.done()
                ),
                "queries_total": int(self._queries_total.value()),
                "errors_total": int(self._errors_total.value()),
                "slow_queries_total": int(self._slow_queries.value()),
                "executor_workers": self.executor_workers,
                "query_timeout": self.query_timeout,
                "shard_id": self.shard_id,
            },
            "engine": self.engine.cache_stats(),
            "metrics": {
                **self.engine.metrics.snapshot(),
                **self.metrics.snapshot(),
            },
        }

    def render_metrics(self) -> str:
        """Prometheus text exposition for this server: the engine's
        registry (caches, pool, OPEN adaptive) plus the server's own
        (requests, errors, latency histogram)."""
        return self.engine.metrics.render_prometheus() + self.metrics.render_prometheus()


async def serve(engine: Engine | Any, host: str = "127.0.0.1", port: int = 7744, **kwargs) -> MosaicServer:
    """Start a :class:`MosaicServer` and return it (convenience wrapper)."""
    server = MosaicServer(engine, host, port, **kwargs)
    await server.start()
    return server
