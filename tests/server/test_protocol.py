"""Wire protocol unit tests: frames, the columnar result codec, and the
error transport (every ``MosaicError`` subclass must cross the wire and
re-raise client-side as the same type with the same message).
"""

import math
import socket

import numpy as np
import pytest

from repro import errors
from repro.core.result import QueryResult
from repro.errors import (
    ConvergenceError,
    MosaicError,
    ProtocolError,
    SqlSyntaxError,
    UnknownRelationError,
    error_from_wire,
    error_to_wire,
    wire_code,
)
from repro.relational.dtypes import DType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.server import protocol


def all_mosaic_error_types() -> list[type]:
    """Every concrete MosaicError subclass, recursively (plus the root)."""
    found: list[type] = [MosaicError]
    frontier = [MosaicError]
    while frontier:
        cls = frontier.pop()
        for sub in cls.__subclasses__():
            if sub.__module__ == "repro.errors" and sub not in found:
                found.append(sub)
                frontier.append(sub)
    return found


def make_instance(cls: type) -> MosaicError:
    """A representative instance (some subclasses have custom __init__s)."""
    if cls is SqlSyntaxError:
        return SqlSyntaxError("unexpected token", line=3, column=7)
    if cls is UnknownRelationError:
        return UnknownRelationError("Ghost")
    if cls is errors.DuplicateRelationError:
        return errors.DuplicateRelationError("Twice")
    if cls is ConvergenceError:
        return ConvergenceError("IPF did not converge", iterations=42)
    return cls(f"{cls.__name__}: something went wrong")


class TestFrames:
    def test_frame_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            protocol.write_frame(left, protocol.QUERY, 7, b"SELECT 1")
            frame_type, request_id, payload = protocol.read_frame(right)
            assert (frame_type, request_id, payload) == (
                protocol.QUERY,
                7,
                b"SELECT 1",
            )
        finally:
            left.close()
            right.close()

    def test_oversized_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            protocol.write_frame(left, protocol.QUERY, 1, b"x" * 100)
            with pytest.raises(ProtocolError, match="frame length"):
                protocol.read_frame(right, max_frame_bytes=16)
        finally:
            left.close()
            right.close()


def round_trip(result: QueryResult) -> QueryResult:
    return protocol.decode_result(protocol.encode_result(result))


class TestQueryxCodec:
    def test_envelope_and_sql_round_trip(self):
        envelope = {"mode": "insert", "indices": [0, 2, 5]}
        sql = "INSERT INTO T VALUES ('é', 1), ('b', 2)"
        assert protocol.decode_queryx(
            protocol.encode_queryx(envelope, sql)
        ) == (envelope, sql)

    def test_truncated_payload_raises(self):
        payload = protocol.encode_queryx({"mode": "partial"}, "SELECT 1")
        with pytest.raises(ProtocolError):
            protocol.decode_queryx(payload[:3])

    def test_non_object_envelope_raises(self):
        body = protocol.json_payload([1, 2])
        payload = len(body).to_bytes(4, "little") + body + b"SELECT 1"
        with pytest.raises(ProtocolError, match="envelope"):
            protocol.decode_queryx(payload)

    def test_extra_header_survives_and_stays_optional(self):
        result = QueryResult(Relation.from_dict({"n": [1, 2]}))
        recipe = {"version": 1, "group_keys": [], "merge": [["n", "sum"]]}
        body = protocol.encode_result(result, extra_header={"partial": recipe})
        decoded, header = protocol.decode_result_with_header(body)
        assert header["partial"] == recipe
        assert decoded.relation.num_rows == 2
        # Plain results have no extra keys and old decode still works.
        plain = protocol.encode_result(result)
        _, plain_header = protocol.decode_result_with_header(plain)
        assert "partial" not in plain_header
        assert protocol.decode_result(body).relation.num_rows == 2


class TestResultCodec:
    def test_all_dtypes_bit_identical(self):
        schema = Schema(
            [
                Field("i", DType.INT),
                Field("f", DType.FLOAT),
                Field("t", DType.TEXT),
                Field("b", DType.BOOL),
            ]
        )
        relation = Relation.from_columns(
            schema,
            {
                "i": [1, -(2**60), 0],
                "f": [1.5, math.nan, -0.0],
                "t": ["x", "longer string", "x"],
                "b": [True, False, True],
            },
        )
        result = QueryResult(
            relation,
            visibility="SEMI-OPEN",
            sample_name="S",
            notes=("note one", "note two"),
        )
        decoded = round_trip(result)
        assert decoded.visibility == "SEMI-OPEN"
        assert decoded.sample_name == "S"
        assert decoded.notes == ("note one", "note two")
        assert decoded.relation.schema == relation.schema
        for name in ("i", "f", "b"):
            # Bit-for-bit: the raw little-endian buffer is the contract.
            assert (
                decoded.relation.column(name).tobytes()
                == relation.column(name).tobytes()
            )
        assert list(decoded.relation.column("t")) == list(relation.column("t"))

    def test_text_ships_as_dictionary_and_stays_encoded(self):
        relation = Relation.from_dict({"t": ["b", "a", "b", "c"], "n": [1, 2, 3, 4]})
        decoded = round_trip(QueryResult(relation)).relation
        vocab, codes = decoded.encoding("t")
        assert list(vocab) == ["a", "b", "c"]
        assert list(codes) == [1, 0, 1, 2]

    def test_filtered_relation_keeps_superset_vocab(self):
        relation = Relation.from_dict({"t": ["a", "b", "c"], "n": [1, 2, 3]})
        filtered = relation.filter(np.asarray([True, False, True]))
        decoded = round_trip(QueryResult(filtered)).relation
        vocab, codes = decoded.encoding("t")
        # The sliced vocabulary crosses as-is: no re-factorization.
        assert list(vocab) == ["a", "b", "c"]
        assert list(codes) == [0, 2]
        assert list(decoded.column("t")) == ["a", "c"]

    def test_empty_relation(self):
        schema = Schema([Field("t", DType.TEXT), Field("n", DType.INT)])
        decoded = round_trip(QueryResult(Relation.empty(schema)))
        assert decoded.num_rows == 0
        assert decoded.columns == ("t", "n")

    def test_result_set_round_trip(self):
        results = [
            QueryResult(Relation.from_dict({"n": [1]}), notes=("a",)),
            QueryResult(Relation.from_dict({"t": ["x", "y"]}), visibility="CLOSED"),
        ]
        decoded = protocol.decode_result_set(protocol.encode_result_set(results))
        assert len(decoded) == 2
        assert decoded[0].rows() == results[0].rows()
        assert decoded[1].visibility == "CLOSED"
        assert decoded[1].rows() == results[1].rows()

    def test_truncated_payload_raises_protocol_error(self):
        body = protocol.encode_result(QueryResult(Relation.from_dict({"n": [1, 2]})))
        with pytest.raises(ProtocolError):
            protocol.decode_result(body[: len(body) - 3])


    @pytest.mark.parametrize(
        "updates",
        [
            {"notes": "not a list"},
            {"notes": [1]},
            {"visibility": 3},
            {"sample_name": ["S"]},
            {"repetitions_used": "x"},
            {"trace": [1, 2]},
        ],
        ids=lambda updates: "-".join(f"{k}={v}" for k, v in updates.items()),
    )
    def test_malformed_metadata_raises_protocol_error(self, updates):
        body = protocol.encode_result(QueryResult(Relation.from_dict({"n": [1, 2]})))
        with pytest.raises(ProtocolError, match="metadata"):
            protocol.decode_result(protocol.replace_header(body, updates))

    def test_non_object_header_raises_protocol_error(self):
        header = protocol.json_payload([1, 2])
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_result(len(header).to_bytes(4, "little") + header)

    def test_replace_header_keeps_slots_decodable(self):
        relation = Relation.from_dict({"t": ["b", "a"], "n": [1, 2]})
        body = protocol.encode_result(QueryResult(relation))
        # A header that grows past a 64-byte boundary moves the data start.
        spliced = protocol.replace_header(body, {"trace": {"pad": "x" * 200}})
        decoded = protocol.decode_result(spliced)
        assert decoded.trace == {"pad": "x" * 200}
        assert decoded.rows() == QueryResult(relation).rows()


class TestErrorCodes:
    def test_every_subclass_is_registered(self):
        registered = set(errors.WIRE_CODES.values())
        for cls in all_mosaic_error_types():
            assert cls in registered, f"{cls.__name__} has no wire code"

    def test_codes_are_unique(self):
        classes = list(errors.WIRE_CODES.values())
        assert len(classes) == len(set(classes))

    def test_unregistered_subclass_maps_to_ancestor(self):
        class CustomCatalogError(errors.CatalogError):
            pass

        assert wire_code(CustomCatalogError) == "CATALOG"

    def test_unknown_code_degrades_to_base(self):
        exc = error_from_wire("NOT_A_CODE", "mystery")
        assert type(exc) is MosaicError
        assert str(exc) == "mystery"

    @pytest.mark.parametrize(
        "cls", all_mosaic_error_types(), ids=lambda c: c.__name__
    )
    def test_codec_round_trip_preserves_type_and_message(self, cls):
        original = make_instance(cls)
        code, message, data = error_to_wire(original)
        rebuilt = error_from_wire(code, message, data)
        assert type(rebuilt) is cls
        assert str(rebuilt) == str(original)

    def test_attributes_survive(self):
        code, message, data = error_to_wire(SqlSyntaxError("bad", line=3, column=7))
        rebuilt = error_from_wire(code, message, data)
        assert (rebuilt.line, rebuilt.column) == (3, 7)

    def test_worker_crash_error_has_stable_wire_code(self):
        # Nothing raises it any more, but wire codes are append-only.
        code, message, data = error_to_wire(errors.WorkerCrashError("worker died"))
        assert code == "WORKER_CRASH"
        rebuilt = error_from_wire(code, message, data)
        assert type(rebuilt) is errors.WorkerCrashError
        assert str(rebuilt) == "worker died"

    def test_non_mosaic_errors_wrap_as_server(self):
        code, message, _ = error_to_wire(ValueError("boom"))
        assert code == "SERVER"
        assert "ValueError" in message and "boom" in message
