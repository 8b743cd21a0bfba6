"""Exception hierarchy for the Mosaic reproduction.

Every error raised by this package derives from :class:`MosaicError` so
callers can catch one type at the API boundary.  Subclasses separate the
major failure domains: the SQL front end, the catalog, the relational
substrate, reweighting, generative modelling, and — since the network
service layer — connection lifecycle and wire transport.

Wire codes
----------
Every subclass carries a **stable wire code** (:data:`WIRE_CODES`) so the
server can ship an error across the framed protocol and the client can
re-raise it as the *same exception type* with the same message
(:func:`error_to_wire` / :func:`error_from_wire`).  Codes are part of the
protocol contract: never reuse or rename one, and register every new
subclass (``tests/server/test_protocol.py`` fails if one is missing).
"""

from __future__ import annotations


class MosaicError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class SchemaError(MosaicError):
    """A relation schema is malformed or violated (bad column, dtype, arity)."""


class TypeMismatchError(SchemaError):
    """A value or expression does not match the declared column type."""


class SqlError(MosaicError):
    """Base class for errors raised by the SQL front end."""


class SqlSyntaxError(SqlError):
    """The statement text could not be tokenised or parsed.

    Carries the 1-based ``line`` and ``column`` of the offending token when
    known, so error messages can point at the statement text.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}, column {column})"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SqlCompileError(SqlError):
    """The statement parsed but cannot be translated to an executable plan."""


class CatalogError(MosaicError):
    """A catalog object is missing, duplicated, or used inconsistently."""


class UnknownRelationError(CatalogError):
    """A statement referenced a relation name the catalog does not know."""

    def __init__(self, name: str):
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class DuplicateRelationError(CatalogError):
    """A CREATE statement used a name that already exists in the catalog."""

    def __init__(self, name: str):
        super().__init__(f"relation already exists: {name!r}")
        self.name = name


class VisibilityError(MosaicError):
    """A query used a visibility level that cannot be satisfied.

    For example a SEMI-OPEN query over a population with neither a known
    sampling mechanism nor any marginal metadata.
    """


class ReweightError(MosaicError):
    """Sample reweighting (inverse-probability or IPF) failed."""


class ConvergenceError(ReweightError):
    """An iterative fit (IPF, generator training) failed to converge."""

    def __init__(self, message: str, iterations: int | None = None):
        if iterations is not None:
            message = f"{message} (after {iterations} iterations)"
        super().__init__(message)
        self.iterations = iterations


class GenerativeModelError(MosaicError):
    """A generative model could not be trained or sampled from."""


class EncodingError(GenerativeModelError):
    """Table encoding/decoding between relations and matrices failed."""


class SessionClosedError(MosaicError):
    """A statement was issued against a closed session or shut-down engine."""


class ProtocolError(MosaicError):
    """The wire protocol was violated (bad magic, version, or frame)."""


class ServerError(MosaicError):
    """The server failed outside the Mosaic error hierarchy.

    Wraps unexpected server-side exceptions (the original type name is
    embedded in the message) and operational refusals such as the
    connection limit, so clients always receive a :class:`MosaicError`.
    """


class QueryCancelledError(MosaicError):
    """A queued or in-flight query was cancelled by a CANCEL frame."""


class QueryTimeoutError(MosaicError):
    """A query exceeded the server's per-query execution timeout."""


class WorkerCrashError(MosaicError):
    """A parallel worker process died (or stalled) mid-query.

    Nothing raises it any more — scans run serially in-process — but its
    wire code ``WORKER_CRASH`` stays registered: wire codes are
    append-only, so an older peer's frame still decodes to this type.
    """


class ConnectionLostError(MosaicError):
    """A pooled client connection died mid-request and one reconnect-and-
    retry attempt also failed.

    Raised instead of a raw ``ConnectionResetError`` / ``BrokenPipeError``
    so callers of :class:`repro.client.Client` (and the fleet router) see
    a typed, wire-codable transport failure.
    """


class ShardUnavailableError(MosaicError):
    """A fleet shard could not serve its part of a query.

    Raised by the fleet router when a shard dies mid-scatter or cannot be
    (re)dialed; ``shard`` identifies the failed shard.  The router keeps
    serving from the surviving shards (degraded mode) where the routing
    policy allows it.
    """

    def __init__(self, message: str, shard: int | None = None):
        super().__init__(message)
        self.shard = shard


class PartialUnsupportedError(MosaicError):
    """A query cannot run as cross-shard partial aggregates.

    Scatter/gather needs a decomposable aggregate plan (filters + one
    COUNT/SUM/AVG/MIN/MAX aggregate + optional sort/limit tail) whose
    weights are shard-locally computable.  Row-level reads and globally
    fitted SEMI-OPEN reweighting over a *sliced* relation are not — the
    error message directs callers to replicate the relation instead.
    """


# --------------------------------------------------------------------- #
# Wire transport
# --------------------------------------------------------------------- #

#: Stable wire code -> exception class.  Append-only: codes are part of
#: the network protocol contract and must never be renamed or reused.
WIRE_CODES: dict[str, type[MosaicError]] = {
    "MOSAIC": MosaicError,
    "SCHEMA": SchemaError,
    "TYPE_MISMATCH": TypeMismatchError,
    "SQL": SqlError,
    "SQL_SYNTAX": SqlSyntaxError,
    "SQL_COMPILE": SqlCompileError,
    "CATALOG": CatalogError,
    "UNKNOWN_RELATION": UnknownRelationError,
    "DUPLICATE_RELATION": DuplicateRelationError,
    "VISIBILITY": VisibilityError,
    "REWEIGHT": ReweightError,
    "CONVERGENCE": ConvergenceError,
    "GENERATIVE_MODEL": GenerativeModelError,
    "ENCODING": EncodingError,
    "SESSION_CLOSED": SessionClosedError,
    "PROTOCOL": ProtocolError,
    "SERVER": ServerError,
    "QUERY_CANCELLED": QueryCancelledError,
    "QUERY_TIMEOUT": QueryTimeoutError,
    "WORKER_CRASH": WorkerCrashError,
    "CONNECTION_LOST": ConnectionLostError,
    "SHARD_UNAVAILABLE": ShardUnavailableError,
    "PARTIAL_UNSUPPORTED": PartialUnsupportedError,
}

_CODES_BY_CLASS: dict[type[MosaicError], str] = {
    cls: code for code, cls in WIRE_CODES.items()
}


def wire_code(error_type: type[BaseException]) -> str:
    """The stable wire code for an error type.

    Unregistered subclasses (e.g. defined by user extensions) map to their
    nearest registered ancestor, so they still cross the wire — as the
    ancestor type.
    """
    for cls in error_type.__mro__:
        code = _CODES_BY_CLASS.get(cls)
        if code is not None:
            return code
    return "SERVER"


def error_to_wire(exc: BaseException) -> tuple[str, str, dict]:
    """``(code, message, data)`` for shipping ``exc`` across the wire.

    ``data`` carries the JSON-safe instance attributes (``line``,
    ``column``, ``name``, ``iterations``, ...) so the reconstructed
    exception keeps them.  Non-Mosaic exceptions wrap as ``SERVER`` with
    the original type name embedded in the message.
    """
    if not isinstance(exc, MosaicError):
        return "SERVER", f"{type(exc).__name__}: {exc}", {}
    data = {
        key: value
        for key, value in vars(exc).items()
        if isinstance(value, (bool, int, float, str)) or value is None
    }
    return wire_code(type(exc)), str(exc), data


def error_from_wire(
    code: str, message: str, data: dict | None = None
) -> MosaicError:
    """Reconstruct the exception an :func:`error_to_wire` tuple describes.

    The instance is built without re-running the subclass ``__init__``
    (which would re-wrap an already-formatted message), so the type and
    ``str()`` round-trip exactly; ``data`` attributes are restored
    directly.  Unknown codes degrade to plain :class:`MosaicError`.
    """
    cls = WIRE_CODES.get(code, MosaicError)
    exc = cls.__new__(cls)
    Exception.__init__(exc, message)
    for key, value in (data or {}).items():
        try:
            setattr(exc, key, value)
        except AttributeError:  # pragma: no cover - slotted subclass
            pass
    return exc
