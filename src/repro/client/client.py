"""The blocking Mosaic client: one-socket connections and a pooled client.

A :class:`Connection` speaks the framed protocol of
:mod:`repro.server.protocol` over a single TCP socket: handshake on
connect, then strictly request/response (one statement in flight at a
time — the pipelined/CANCEL side of the protocol is for async clients).
Results arrive **columnar** and are rebuilt zero-decode into the same
:class:`~repro.core.result.QueryResult` the in-process API returns:
numeric columns wrap the received buffers, TEXT columns are born with the
server's dictionary encoding.  Server errors re-raise as their original
:class:`~repro.errors.MosaicError` subclass with the original message.

:class:`Client` adds a simple thread-safe pool: up to ``pool_size``
connections created lazily, borrowed per call, returned on success and
discarded on transport failure.  Each pooled connection is its own server
session (own RNG stream, own defaults) — callers that need a *stable*
session, e.g. for reproducible OPEN answers, should hold a
:class:`Connection` directly.
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import Any

from repro.core.result import QueryResult
from repro.errors import ConnectionLostError, ProtocolError
from repro.server import protocol


def _merge_open_options(
    options: dict | None, open_options: dict | None
) -> dict | None:
    """Fold the ``open_options`` convenience into HELLO ``options["open"]``.

    The server applies these per-connection OPEN execution knobs —
    ``tolerance`` / ``min_repetitions`` / ``max_repetitions`` /
    ``chunk_repetitions`` / ``report_ci`` / ``repetitions`` — to a fresh
    copy of its session config (see ``MosaicServer._connection_config``).
    """
    if open_options is None:
        return options
    merged = dict(options or {})
    merged["open"] = {**merged.get("open", {}), **open_options}
    return merged


class Connection:
    """One socket to a Mosaic server: handshake + blocking request/response."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        options: dict | None = None,
        open_options: dict | None = None,
        timeout: float | None = None,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
    ):
        options = _merge_open_options(options, open_options)
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self._request_ids = 0
        self._closed = False
        #: True once a request has succeeded on this socket.  The pool uses
        #: it to tell a *stale* connection (idle across a server restart —
        #: safe to retry on a fresh socket) from one that failed on its
        #: very first use (the server itself is likely down).
        self.used = False
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            welcome = self._request(
                protocol.HELLO,
                protocol.json_payload(
                    {
                        "magic": protocol.MAGIC,
                        "version": protocol.PROTOCOL_VERSION,
                        "options": options or {},
                    }
                ),
                expect=protocol.WELCOME,
            )
        except BaseException:
            self._sock.close()
            raise
        handshake = protocol.parse_json_payload(welcome)
        #: Server identification string from the handshake.
        self.server_info: str = handshake.get("server", "")
        #: This connection's session spawn index on the server's engine:
        #: ``engine.connect()`` number ``k`` draws RNG stream ``k``, so the
        #: index is what reproduces this session's OPEN answers in-process.
        self.session_index: int | None = handshake.get("session_index")

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def execute(self, sql: str) -> QueryResult:
        """Run one statement; server errors re-raise as their MosaicError type."""
        payload = self._request(
            protocol.QUERY, sql.encode("utf-8"), expect=protocol.RESULT
        )
        return protocol.decode_result(payload)

    def execute_script(self, sql: str) -> list[QueryResult]:
        """Run a ``;``-separated script, returning one result per statement."""
        payload = self._request(
            protocol.SCRIPT, sql.encode("utf-8"), expect=protocol.RESULT_SET
        )
        return protocol.decode_result_set(payload)

    def query_extended(self, envelope: dict, sql: str) -> tuple[QueryResult, dict]:
        """Send a QUERYX frame; returns the result plus its raw JSON header.

        Fleet-internal: the router uses ``{"mode": "partial"}`` to collect
        a shard's partial aggregate (the header carries the ``"partial"``
        merge recipe) and ``{"mode": "insert", "indices": [...]}`` to apply
        one shard's slice of an INSERT.
        """
        payload = self._request(
            protocol.QUERYX,
            protocol.encode_queryx(envelope, sql),
            expect=protocol.RESULT,
        )
        return protocol.decode_result_with_header(payload)

    def stats(self) -> dict:
        """Server counters plus engine cache statistics."""
        payload = self._request(protocol.STATS, expect=protocol.STATS_RESULT)
        return protocol.parse_json_payload(payload)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Say GOODBYE (best effort) and close the socket.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._request(protocol.GOODBYE, expect=protocol.BYE)
        except (OSError, ProtocolError):
            pass  # closing anyway
        finally:
            self._sock.close()

    def settimeout(self, timeout: float | None) -> None:
        """Adjust the socket timeout after the handshake.

        The constructor's ``timeout`` covers dialing *and* every later
        recv; callers that want a dial deadline but unbounded queries
        (e.g. the fleet router) clear it once connected.
        """
        self._sock.settimeout(timeout)

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Wire plumbing
    # ------------------------------------------------------------------ #

    def _request(
        self, frame_type: int, payload: bytes = b"", *, expect: int
    ) -> bytes:
        if self._closed and frame_type != protocol.GOODBYE:
            raise ProtocolError("connection is closed")
        self._request_ids += 1
        request_id = self._request_ids
        protocol.write_frame(self._sock, frame_type, request_id, payload)
        response_type, response_id, body = protocol.read_frame(
            self._sock, self.max_frame_bytes
        )
        if response_type == protocol.ERROR:
            # Raised before the id check: connection-level refusals (limit
            # reached, bad handshake) answer with request id 0 because the
            # server never read the request they refuse.
            raise protocol.decode_error(body)
        if response_id != request_id:
            raise ProtocolError(
                f"response for request {response_id}, expected {request_id}"
            )
        if response_type != expect:
            raise ProtocolError(
                f"unexpected frame type 0x{response_type:02x} "
                f"(expected 0x{expect:02x})"
            )
        self.used = True
        return body


class Client:
    """A thread-safe pooled client over :class:`Connection`.

    Connections are created lazily up to ``pool_size`` and shared across
    threads; a call borrows one for its duration.  When every connection
    is busy a call blocks until one frees up — the client-side face of the
    server's backpressure.  Transport failures discard the broken
    connection (a later call dials a fresh one) and re-raise.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7744,
        *,
        pool_size: int = 4,
        options: dict | None = None,
        open_options: dict | None = None,
        timeout: float | None = None,
    ):
        if pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.options = _merge_open_options(options, open_options)
        self.timeout = timeout
        self._idle: "queue.LifoQueue[Connection]" = queue.LifoQueue()
        self._created = 0
        self._mutex = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def execute(self, sql: str) -> QueryResult:
        return self._call(Connection.execute, sql)

    def execute_script(self, sql: str) -> list[QueryResult]:
        return self._call(Connection.execute_script, sql)

    def stats(self) -> dict:
        return self._call(Connection.stats)

    def metrics(self) -> dict:
        """The server's flat metrics-registry snapshot (the same numbers
        the Prometheus endpoint renders).  Works against both a plain
        server and a fleet router — each puts its registry snapshot under
        the ``metrics`` key of its STATS payload."""
        return self.stats().get("metrics", {})

    def close(self) -> None:
        """Close every pooled connection.  Idempotent.

        Connections currently borrowed by other threads are closed when
        returned (the pool refuses them once closed).
        """
        with self._mutex:
            self._closed = True
        while True:
            try:
                self._idle.get_nowait().close()
            except queue.Empty:
                return

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Pooling
    # ------------------------------------------------------------------ #

    def _call(self, method, *args) -> Any:
        connection = self._acquire()
        try:
            result = method(connection, *args)
        except (OSError, ProtocolError) as exc:
            # Transport is suspect: drop the connection instead of pooling
            # a socket in an unknown protocol state.
            stale = connection.used and isinstance(exc, OSError)
            self._discard(connection)
            if not stale:
                raise
            # The connection had served requests before, so the likeliest
            # cause is a socket gone stale in the pool (server restarted
            # between borrows).  Retry exactly once on a *freshly dialed*
            # connection — another pooled socket could be just as stale.
            return self._retry_once(method, exc, *args)
        except BaseException:
            self._release(connection)
            raise
        self._release(connection)
        return result

    def _retry_once(self, method, cause: OSError, *args) -> Any:
        try:
            connection = self._dial()
        except OSError as exc:
            raise ConnectionLostError(
                f"connection to {self.host}:{self.port} was lost and "
                f"reconnecting failed: {exc}"
            ) from cause
        try:
            result = method(connection, *args)
        except OSError as exc:
            self._discard(connection)
            raise ConnectionLostError(
                f"connection to {self.host}:{self.port} was lost and the "
                f"retry also failed: {exc}"
            ) from cause
        except ProtocolError:
            self._discard(connection)
            raise
        except BaseException:
            self._release(connection)
            raise
        self._release(connection)
        return result

    def _dial(self) -> Connection:
        """Dial a brand-new pooled connection (slot-accounted)."""
        with self._mutex:
            if self._closed:
                raise ProtocolError("client is closed")
            self._created += 1
        try:
            return Connection(
                self.host, self.port, options=self.options, timeout=self.timeout
            )
        except BaseException:
            with self._mutex:
                self._created -= 1
            raise

    def _acquire(self) -> Connection:
        # A discarded connection frees a *slot*, not a queue entry, so a
        # waiter must never block on the queue indefinitely: it polls and
        # re-checks whether it may dial a replacement (or whether the
        # client was closed underneath it) each round.
        while True:
            with self._mutex:
                if self._closed:
                    raise ProtocolError("client is closed")
            try:
                return self._idle.get_nowait()
            except queue.Empty:
                pass
            with self._mutex:
                if self._created < self.pool_size:
                    self._created += 1
                    dial = True
                else:
                    dial = False
            if dial:
                try:
                    return Connection(
                        self.host, self.port, options=self.options, timeout=self.timeout
                    )
                except BaseException:
                    with self._mutex:
                        self._created -= 1
                    raise
            try:
                return self._idle.get(timeout=0.05)
            except queue.Empty:
                continue

    def _release(self, connection: Connection) -> None:
        with self._mutex:
            closed = self._closed
        if closed or connection.closed:
            self._discard(connection)
        else:
            self._idle.put(connection)

    def _discard(self, connection: Connection) -> None:
        with self._mutex:
            self._created -= 1
        try:
            connection.close()
        except OSError:  # pragma: no cover - socket already dead
            pass
