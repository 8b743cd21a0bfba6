"""Hostile layout headers and payloads: every one is a typed error.

Each mutation edits one field of a valid layout header (or a few bytes
of its slots) and is applied to two carriers: a page file, which must
raise ``PageFormatError``, and a RESULT payload, which must raise
``ProtocolError``.  Never garbage values, an ``AssertionError``, an
untyped numpy or JSON error, or a crash.  A ``"|O"`` dtype once made
the page reader build object arrays over raw bytes and segfault, so
those cases run in a subprocess.
"""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ProtocolError
from repro.relational.dtypes import DType
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.server import protocol
from repro.storage.pages import PAGE_MAGIC, PageFormatError, open_page, write_page

ALIGNMENT = 64
_PAGE_PREFIX = struct.Struct("<II")


def _aligned(offset: int) -> int:
    return -(-offset // ALIGNMENT) * ALIGNMENT


def _base_relation() -> tuple[Relation, dict[str, np.ndarray]]:
    relation = Relation.from_columns(
        Schema.of(id=DType.INT, score=DType.FLOAT, ok=DType.BOOL, city=DType.TEXT),
        {
            "id": [1, 2, 3, 4],
            "score": [0.5, 1.5, 2.5, 3.5],
            "ok": [True, False, True, False],
            "city": ["b", "a", "c", "a"],
        },
    )
    return relation, {"__weights__": np.linspace(1.0, 2.0, 4)}


def _base_layout(tmp_path) -> tuple[dict, bytes]:
    """A valid layout header and its slot bytes, read from a written page."""
    path = tmp_path / "base.page"
    write_page(path, *_base_relation())
    data = path.read_bytes()
    head = len(PAGE_MAGIC) + _PAGE_PREFIX.size
    _, length = _PAGE_PREFIX.unpack_from(data, len(PAGE_MAGIC))
    header = json.loads(data[head : head + length])
    return header, data[_aligned(head + length) :]


def _with_head(head: bytes, data: bytes) -> bytes:
    return head + bytes(_aligned(len(head)) - len(head)) + data


def page_bytes(header: dict, data: bytes) -> bytes:
    body = json.dumps(header, ensure_ascii=False).encode("utf-8")
    return _with_head(PAGE_MAGIC + _PAGE_PREFIX.pack(1, len(body)) + body, data)


def result_payload(header: dict, data: bytes) -> bytes:
    result_header = {"visibility": "CLOSED", "sample_name": None, "notes": [], **header}
    body = json.dumps(result_header).encode("utf-8")
    return _with_head(struct.pack("<I", len(body)) + body, data)


def _column(header, name):
    return next(slot for slot in header["columns"] if slot["name"] == name)


def _set(name, key, value):
    def mutate(header, data):
        _column(header, name)[key] = value
    return mutate


def _set_extra(key, value):
    def mutate(header, data):
        header["extras"][0][key] = value
    return mutate


def _drop(key, name=None):
    def mutate(header, data):
        del (header if name is None else _column(header, name))[key]
    return mutate


def _poke(name, fmt, value):
    """Overwrite the first element of column ``name``'s slot."""
    def mutate(header, data):
        struct.pack_into(fmt, data, _column(header, name)["offset"], value)
    return mutate


def _overlap(header, data):
    _column(header, "score")["offset"] = _column(header, "id")["offset"]


def _out_of_bounds(header, data):
    _column(header, "score")["offset"] = _aligned(len(data))


def _truncate(header, data):
    # The last slot ends mid-item: its length is no multiple of 8.
    del data[len(data) - 3 :]


MUTATIONS = {
    "dtype-object": _set("id", "dtype", "|O"),
    "dtype-object-extra": _set_extra("dtype", "|O"),
    "dtype-unicode": _set("city", "dtype", "<U4"),
    "dtype-unicode-extra": _set_extra("dtype", "<U4"),
    "dtype-int32-on-int": _set("id", "dtype", "<i4"),
    "dtype-not-a-dtype": _set_extra("dtype", "no such dtype"),
    "offset-negative": _set("score", "offset", -64),
    "offset-unaligned": _set("score", "offset", 72),
    "offset-string": _set("score", "offset", "64"),
    "offset-overlapping": _overlap,
    "offset-out-of-bounds": _out_of_bounds,
    "vocab-null": _set("city", "vocab", None),
    "vocab-not-a-list": _set("city", "vocab", "abc"),
    "vocab-non-str": _set("city", "vocab", [1, 2, 3]),
    "vocab-unsorted": _set("city", "vocab", ["c", "b", "a"]),
    "vocab-duplicate": _set("city", "vocab", ["a", "a", "b"]),
    "vocab-on-int": _set("id", "vocab", ["a"]),
    "codes-negative": _poke("city", "<i", -1),
    "codes-past-vocab": _poke("city", "<i", 3),
    "bool-byte-2": _poke("ok", "<B", 2),
    "logical-unknown": _set("id", "logical", "BLOB"),
    "logical-unhashable": _set("id", "logical", ["INT"]),
    "name-duplicate": _set("score", "name", "id"),
    "name-empty": _set("score", "name", ""),
    "name-unhashable": _set("city", "name", ["city"]),
    "num-rows-negative": lambda header, data: header.update(num_rows=-1),
    "num-rows-string": lambda header, data: header.update(num_rows="x"),
    "num-rows-too-many": lambda header, data: header.update(num_rows=5),
    "columns-not-a-list": lambda header, data: header.update(columns={}),
    "column-not-an-object": lambda header, data: header.update(columns=[7]),
    "missing-num-rows": _drop("num_rows"),
    "missing-columns": _drop("columns"),
    "missing-extras": _drop("extras"),
    "missing-offset": _drop("offset", "id"),
    "missing-vocab": _drop("vocab", "city"),
    "missing-dtype": _drop("dtype", "score"),
    "payload-not-item-multiple": _truncate,
}

CARRIERS = {
    "page": (page_bytes, PageFormatError),
    "wire": (result_payload, ProtocolError),
}

_PROBE = """
import sys
from repro.errors import ProtocolError
from repro.server.protocol import decode_result
from repro.storage.pages import PageFormatError, open_page
carrier, path = sys.argv[1:]
try:
    if carrier == "page":
        relation, extras = open_page(path)
    else:
        with open(path, "rb") as handle:
            relation, extras = decode_result(handle.read()).relation, {}
    relation.to_pylist()  # read every value
    [values.tolist() for values in extras.values()]
except (PageFormatError, ProtocolError) as exc:
    print("typed:", type(exc).__name__)
else:
    print("accepted")
"""


def _mutated(tmp_path, carrier: str, mutation: str) -> bytes:
    header, data = _base_layout(tmp_path)
    data = bytearray(data)
    MUTATIONS[mutation](header, data)
    build, _ = CARRIERS[carrier]
    return build(header, bytes(data))


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
def test_unmutated_input_decodes(tmp_path, carrier):
    header, data = _base_layout(tmp_path)
    built = CARRIERS[carrier][0](header, data)
    if carrier == "page":
        path = tmp_path / "ok.page"
        path.write_bytes(built)
        relation, extras = open_page(path)
        assert sorted(extras) == ["__weights__"]
    else:
        relation = protocol.decode_result(built).relation
    expected, _ = _base_relation()
    assert relation.to_pylist() == expected.to_pylist()


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("carrier", sorted(CARRIERS))
def test_mutation_raises_the_carriers_typed_error(tmp_path, carrier, mutation):
    built = _mutated(tmp_path, carrier, mutation)
    path = tmp_path / "hostile.bin"
    path.write_bytes(built)
    _, error = CARRIERS[carrier]
    if mutation.startswith("dtype-object"):
        # At worst a segfault: keep it out of the test process.
        src = str(Path(repro.__file__).resolve().parents[1])
        probe = subprocess.run(
            [sys.executable, "-c", _PROBE, carrier, str(path)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == f"typed: {error.__name__}"
        return
    with pytest.raises(error):
        if carrier == "page":
            open_page(path)
        else:
            protocol.decode_result(built)
