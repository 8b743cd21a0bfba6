"""The Mosaic wire protocol: length-prefixed frames + columnar results.

Shared by :class:`~repro.server.server.MosaicServer` and
:class:`~repro.client.client.Client`; stdlib + numpy only.

Frame layout (all integers little-endian)::

    u32 length | u8 type | u32 request_id | payload[length - 5]

``length`` counts everything after itself.  Request frames carry a
client-chosen ``request_id``; every response echoes the id of the request
it answers, so responses may interleave across in-flight requests of one
connection.

Frame types::

    client -> server                     server -> client
    0x01 HELLO   (JSON handshake)        0x81 WELCOME      (JSON)
    0x02 QUERY   (UTF-8 SQL)             0x82 RESULT       (columnar result)
    0x03 SCRIPT  (UTF-8 SQL script)      0x83 RESULT_SET   (u32 n + results)
    0x04 CANCEL  (u32 target id)         0x84 STATS_RESULT (JSON)
    0x05 STATS   (empty)                 0x85 ERROR        (JSON code/message)
    0x06 GOODBYE (empty)                 0x86 BYE          (empty)
    0x07 QUERYX  (envelope + SQL)

QUERYX is QUERY with an out-of-band JSON envelope (``u32 json_length |
envelope JSON | UTF-8 SQL``) for fleet-internal execution modes: the
router asks a shard to run a SELECT as a cross-shard *partial aggregate*
(``{"mode": "partial"}`` — the RESULT header gains a ``"partial"`` merge
recipe) or to apply only its slice of an INSERT (``{"mode": "insert",
"indices": [...]}``).  The response is an ordinary RESULT frame.

Columnar result payload
-----------------------
Results ship **columnar, never row-by-row**: a RESULT payload carries the
relation's storage form as :mod:`repro.relational.layout` plans it — the
same header and 64-byte-aligned slots as a page file or a shared
segment::

    u32 header_length | header JSON | zero padding | slots

The header is the layout header (``num_rows``, ``columns`` with each
slot's logical type, dtype, offset and TEXT vocabulary, ``extras``)
plus the result's metadata: ``visibility``, ``sample_name``, ``notes``,
and when present ``repetitions_used`` (OPEN answers), ``trace`` and
``partial`` (a QUERYX partial aggregate's merge recipe).  Slot offsets
count from the data start, the payload's first 64-byte boundary at or
after the header's end.  INT/FLOAT/BOOL slots are the raw little-endian arrays; a TEXT
slot is the ``int32`` code array, its vocabulary crossing once in the
header however many rows reference it.  The client rebuilds the
relation with :func:`~repro.relational.layout.decode_relation`, which
validates every header field and slot and raises :class:`ProtocolError`
on any malformed input; the relation is *born encoded* in the server's
vocabulary and bit-identical to the in-process result.  Version 2 of
the protocol introduced this payload; version 1 sent one length-prefixed
block per column.

Errors cross as ``{"code", "message", "data"}`` JSON
(:func:`repro.errors.error_to_wire`); the client re-raises the same
exception type via :func:`repro.errors.error_from_wire`.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any

from repro.core.result import QueryResult
from repro.errors import MosaicError, ProtocolError, error_from_wire, error_to_wire
from repro.relational.layout import aligned, decode_relation, pack, plan_slots

MAGIC = "mosaic"
PROTOCOL_VERSION = 2

#: Refuse frames beyond this size (both directions) so a corrupt or
#: malicious length prefix cannot trigger an unbounded allocation.
DEFAULT_MAX_FRAME_BYTES = 256 * 1024 * 1024

# Client -> server frame types.
HELLO = 0x01
QUERY = 0x02
SCRIPT = 0x03
CANCEL = 0x04
STATS = 0x05
GOODBYE = 0x06
QUERYX = 0x07

# Server -> client frame types.
WELCOME = 0x81
RESULT = 0x82
RESULT_SET = 0x83
STATS_RESULT = 0x84
ERROR = 0x85
BYE = 0x86

_HEAD = struct.Struct("<I")  # frame length prefix
_TYPE_RID = struct.Struct("<BI")  # frame type + request id
_U32 = struct.Struct("<I")

#: Bytes the length prefix counts beyond the payload (type + request id).
#: A payload may be at most ``max_frame_bytes - FRAME_OVERHEAD_BYTES``.
FRAME_OVERHEAD_BYTES = _TYPE_RID.size

# --------------------------------------------------------------------- #
# Frames
# --------------------------------------------------------------------- #


def build_frame(frame_type: int, request_id: int, payload: bytes = b"") -> bytes:
    """One wire frame as a single bytes object (atomic to write)."""
    return (
        _HEAD.pack(_TYPE_RID.size + len(payload))
        + _TYPE_RID.pack(frame_type, request_id)
        + payload
    )


def _split_frame(body: bytes) -> tuple[int, int, bytes]:
    frame_type, request_id = _TYPE_RID.unpack_from(body)
    return frame_type, request_id, body[_TYPE_RID.size :]


def _checked_length(raw: bytes, max_frame_bytes: int) -> int:
    (length,) = _HEAD.unpack(raw)
    if length < _TYPE_RID.size or length > max_frame_bytes:
        raise ProtocolError(
            f"invalid frame length {length} (max {max_frame_bytes} bytes)"
        )
    return length


async def read_frame_async(
    reader: asyncio.StreamReader, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> tuple[int, int, bytes]:
    """Read one frame from an asyncio stream: ``(type, request_id, payload)``."""
    try:
        head = await reader.readexactly(_HEAD.size)
        body = await reader.readexactly(_checked_length(head, max_frame_bytes))
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("connection closed mid-frame") from exc
    return _split_frame(body)


def recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: socket.socket, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> tuple[int, int, bytes]:
    """Read one frame from a blocking socket: ``(type, request_id, payload)``."""
    head = recv_exact(sock, _HEAD.size)
    body = recv_exact(sock, _checked_length(head, max_frame_bytes))
    return _split_frame(body)


def write_frame(
    sock: socket.socket, frame_type: int, request_id: int, payload: bytes = b""
) -> None:
    sock.sendall(build_frame(frame_type, request_id, payload))


def json_payload(obj: Any) -> bytes:
    return json.dumps(obj).encode("utf-8")


def parse_json_payload(payload: bytes) -> Any:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON payload: {exc}") from exc


# --------------------------------------------------------------------- #
# Extended query frames (fleet-internal execution modes)
# --------------------------------------------------------------------- #


def encode_queryx(envelope: dict, sql: str) -> bytes:
    """QUERYX payload: ``u32 json_length | envelope JSON | UTF-8 SQL``."""
    body = json_payload(envelope)
    return _U32.pack(len(body)) + body + sql.encode("utf-8")


def decode_queryx(payload: bytes) -> tuple[dict, str]:
    """``(envelope, sql)`` from a QUERYX payload."""
    if len(payload) < _U32.size:
        raise ProtocolError("truncated QUERYX payload")
    (length,) = _U32.unpack_from(payload)
    start = _U32.size
    if start + length > len(payload):
        raise ProtocolError("truncated QUERYX payload")
    envelope = parse_json_payload(payload[start : start + length])
    if not isinstance(envelope, dict):
        raise ProtocolError("QUERYX envelope must be a JSON object")
    try:
        sql = payload[start + length :].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"QUERYX SQL is not valid UTF-8: {exc}") from exc
    return envelope, sql


# --------------------------------------------------------------------- #
# Columnar result codec
# --------------------------------------------------------------------- #


def encode_result(result: QueryResult, extra_header: dict | None = None) -> bytes:
    """Serialize a :class:`QueryResult` into a columnar wire payload."""
    layout = plan_slots(result.relation)
    header = {
        **layout.header,
        "visibility": result.visibility,
        "sample_name": result.sample_name,
        "notes": list(result.notes),
    }
    # Optional keys: OPEN answers report how many repetitions the adaptive
    # stream used, traced queries carry their serialized QueryTrace, and
    # QUERYX partial responses attach their merge recipe via
    # ``extra_header``.
    if result.repetitions_used is not None:
        header["repetitions_used"] = result.repetitions_used
    if result.trace is not None:
        header["trace"] = result.trace
    if extra_header:
        header.update(extra_header)
    return pack(_header_block(header), layout)


def _header_block(header: dict) -> bytes:
    body = json_payload(header)
    return _U32.pack(len(body)) + body


def _split_result(payload: bytes) -> tuple[dict, int]:
    """A result payload's JSON header and the offset of its data start."""
    if len(payload) < _U32.size:
        raise ProtocolError("truncated result payload")
    (length,) = _U32.unpack_from(payload, 0)
    end = _U32.size + length
    if end > len(payload):
        raise ProtocolError("truncated result payload")
    header = parse_json_payload(payload[_U32.size : end])
    if not isinstance(header, dict):
        raise ProtocolError("result header must be a JSON object")
    return header, aligned(end)


def replace_header(payload: bytes, updates: dict) -> bytes:
    """Splice ``updates`` into a result payload's JSON header.

    Re-encodes only the header, leaving the slots byte-identical — the
    server uses this to stamp post-encoding phase timings (``encode_ms``)
    into the ``trace`` header field without re-serializing the relation.
    """
    header, start = _split_result(payload)
    header.update(updates)
    head = _header_block(header)
    return b"".join([head, bytes(aligned(len(head)) - len(head)), payload[start:]])


class _Cursor:
    """Sequential reader over a result-set payload."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def block(self) -> bytes:
        if self.offset + _U32.size > len(self.data):
            raise ProtocolError("truncated result payload")
        (length,) = _U32.unpack_from(self.data, self.offset)
        start = self.offset + _U32.size
        if start + length > len(self.data):
            raise ProtocolError("truncated result payload")
        self.offset = start + length
        return self.data[start : self.offset]


def decode_result(payload: bytes) -> QueryResult:
    """Rebuild the :class:`QueryResult` an :func:`encode_result` payload holds."""
    return decode_result_with_header(payload)[0]


def decode_result_with_header(payload: bytes) -> tuple[QueryResult, dict]:
    """Like :func:`decode_result`, also returning the raw JSON header.

    The header exposes keys a plain :class:`QueryResult` has no field
    for — notably the ``"partial"`` merge recipe on QUERYX
    partial-aggregate responses.  Any malformed header or slot raises
    :class:`ProtocolError`.
    """
    header, start = _split_result(payload)
    relation, _ = decode_relation(header, memoryview(payload)[start:], ProtocolError)
    visibility, sample_name = header.get("visibility"), header.get("sample_name")
    notes = header.get("notes") or []
    repetitions_used, trace = header.get("repetitions_used"), header.get("trace")
    if not (
        isinstance(notes, list)
        and all(isinstance(note, str) for note in notes)
        and isinstance(visibility, (str, type(None)))
        and isinstance(sample_name, (str, type(None)))
        and (repetitions_used is None or type(repetitions_used) is int)
        and isinstance(trace, (dict, type(None)))
    ):
        raise ProtocolError("malformed result metadata")
    result = QueryResult(
        relation,
        visibility=visibility,
        sample_name=sample_name,
        notes=tuple(notes),
        repetitions_used=repetitions_used,
        trace=trace,
    )
    return result, header


def encode_result_set(results: list[QueryResult]) -> bytes:
    """RESULT_SET payload: ``u32 count`` + length-prefixed result payloads."""
    blocks = [_U32.pack(len(results))]
    for result in results:
        body = encode_result(result)
        blocks.append(_U32.pack(len(body)) + body)
    return b"".join(blocks)


def decode_result_set(payload: bytes) -> list[QueryResult]:
    if len(payload) < _U32.size:
        raise ProtocolError("truncated result-set payload")
    (count,) = _U32.unpack_from(payload)
    cursor = _Cursor(payload, offset=_U32.size)
    return [decode_result(cursor.block()) for _ in range(count)]


# --------------------------------------------------------------------- #
# Error transport
# --------------------------------------------------------------------- #


def encode_error(exc: BaseException) -> bytes:
    code, message, data = error_to_wire(exc)
    return json_payload({"code": code, "message": message, "data": data})


def decode_error(payload: bytes) -> MosaicError:
    body = parse_json_payload(payload)
    return error_from_wire(
        body.get("code", "MOSAIC"), body.get("message", ""), body.get("data")
    )
