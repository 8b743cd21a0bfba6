"""The on-disk columnar page format: mmap-able, layout-identical to shm.

One page file holds one relation's *storage form* — exactly the byte
layout :func:`repro.relational.shm.share_relation` places in a shared
segment: each numeric column (and each TEXT column's ``int32`` dictionary
codes) as a raw little-endian buffer starting on a 64-byte boundary, plus
optional extra side arrays (sample weights).  A small JSON header up
front records the schema, each slot's dtype/offset, and every TEXT
column's vocabulary.

Because the payload mirrors the in-memory layout, *reopening is O(1) in
rows*: read the header, ``mmap`` the file once, and wrap read-only
``np.ndarray`` views over the mapping — no deserialization pass, no row
materialisation.  TEXT object columns stay lazy behind the same
``vocab[codes]`` gather the shm attach path uses.  The resulting
:class:`MappedRelation` carries its own
:class:`~repro.relational.shm.RelationDescriptor`, so another process can
map the *file* directly instead of copying the relation into
``/dev/shm``.

File layout::

    [0:8)    magic  b"MOSAICPG"
    [8:12)   format version (u32 LE)
    [12:16)  header length H (u32 LE)
    [16:16+H) JSON header (utf-8)
    ...      zero padding to the 64-byte-aligned data start
    payload  slot buffers, offsets in the header are *relative to the
             data start* (so absolute offsets stay 64-byte aligned)

Writes are atomic: temp file in the same directory, flushed and fsynced,
then ``os.replace`` onto the final name — a reader never observes a
half-written page.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Mapping

import numpy as np

from repro.errors import MosaicError
from repro.relational.relation import Relation
from repro.relational.shm import (
    _ALIGNMENT,
    ColumnSlot,
    ExtraSlot,
    RelationDescriptor,
    _storage_arrays,
    attach_relation,
)

PAGE_MAGIC = b"MOSAICPG"
PAGE_VERSION = 1

_PREFIX = struct.Struct("<II")  # format version, header length


class PageFormatError(MosaicError):
    """A page file is missing, truncated, or structurally invalid."""


def _align(offset: int) -> int:
    return -(-offset // _ALIGNMENT) * _ALIGNMENT


class MappedRelation(Relation):
    """A relation whose columns are read-only views over a mapped page file.

    Behaves exactly like any :class:`Relation` (transformations return
    plain relations); the extra slots only (a) keep the file mapping alive
    for the lifetime of the views and (b) expose ``mmap_descriptor``, the
    page's descriptor — what :func:`~repro.relational.shm.attach_relation`
    needs to map the same file again.
    """

    __slots__ = ("mmap_descriptor", "_attached")

    @classmethod
    def _adopt(cls, relation: Relation, descriptor: RelationDescriptor, attached) -> "MappedRelation":
        mapped = cls.__new__(cls)
        mapped._schema = relation._schema
        mapped._columns = relation._columns
        mapped._nrows = relation._nrows
        mapped._dictionaries = relation._dictionaries
        mapped._encodings = relation._encodings
        mapped._groupings = relation._groupings
        mapped.mmap_descriptor = descriptor
        mapped._attached = attached  # owns the mapping; views reference its buffer
        return mapped


def write_page(path: str | os.PathLike, relation: Relation, extras: Mapping[str, np.ndarray] | None = None) -> int:
    """Write ``relation`` (+ side arrays) to ``path`` atomically.

    Returns the file size in bytes.  Layout order and alignment are the
    shared-memory layout's (``_storage_arrays`` + 64-byte slot rounding),
    so a page round-trips bit-identically through either attach path.
    """
    payloads, extra_payloads = _storage_arrays(relation, extras)
    for name, array in extra_payloads:
        if array.dtype == object:
            raise PageFormatError(f"extra array {name!r} must be numeric")
        if array.shape[0] != relation.num_rows:
            raise PageFormatError(
                f"extra array {name!r} has {array.shape[0]} rows, relation has "
                f"{relation.num_rows}"
            )

    offset = 0
    columns: list[dict] = []
    extra_slots: list[dict] = []
    placed: list[tuple[int, np.ndarray]] = []
    for name, logical, array, vocab in payloads:
        offset = _align(offset)
        columns.append(
            {
                "name": name,
                "logical": logical,
                "dtype": array.dtype.str,
                "offset": offset,
                "vocab": None if vocab is None else list(vocab),
            }
        )
        placed.append((offset, array))
        offset += array.nbytes
    for name, array in extra_payloads:
        offset = _align(offset)
        extra_slots.append({"name": name, "dtype": array.dtype.str, "offset": offset})
        placed.append((offset, array))
        offset += array.nbytes

    header = json.dumps(
        {
            "num_rows": relation.num_rows,
            "columns": columns,
            "extras": extra_slots,
        },
        ensure_ascii=False,
    ).encode("utf-8")
    data_start = _align(len(PAGE_MAGIC) + _PREFIX.size + len(header))

    path = os.fspath(path)
    temp = f"{path}.tmp.{os.getpid()}"
    with open(temp, "wb") as handle:
        handle.write(PAGE_MAGIC)
        handle.write(_PREFIX.pack(PAGE_VERSION, len(header)))
        handle.write(header)
        handle.write(b"\x00" * (data_start - len(PAGE_MAGIC) - _PREFIX.size - len(header)))
        position = data_start
        for slot_offset, array in placed:
            target = data_start + slot_offset
            if target > position:
                handle.write(b"\x00" * (target - position))
                position = target
            data = array.tobytes()  # C-contiguous little-endian bytes
            handle.write(data)
            position += len(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    return position


def read_descriptor(path: str | os.PathLike) -> RelationDescriptor:
    """Parse a page header into an attachable descriptor (absolute offsets).

    O(header): no payload bytes are read.  Raises
    :class:`PageFormatError` on any structural problem (missing file,
    truncated header, wrong magic, payload shorter than the slots claim) —
    the checkpoint loader treats that as a corrupt checkpoint.
    """
    path = os.path.abspath(os.fspath(path))
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as handle:
            magic = handle.read(len(PAGE_MAGIC))
            if magic != PAGE_MAGIC:
                raise PageFormatError(f"{path}: not a mosaic page (bad magic)")
            prefix = handle.read(_PREFIX.size)
            if len(prefix) != _PREFIX.size:
                raise PageFormatError(f"{path}: truncated page prefix")
            version, header_length = _PREFIX.unpack(prefix)
            if version != PAGE_VERSION:
                raise PageFormatError(f"{path}: unsupported page version {version}")
            header_bytes = handle.read(header_length)
            if len(header_bytes) != header_length:
                raise PageFormatError(f"{path}: truncated page header")
    except OSError as exc:
        raise PageFormatError(f"cannot read page {path}: {exc}") from exc
    try:
        header = json.loads(header_bytes.decode("utf-8"))
        num_rows = int(header["num_rows"])
        data_start = _align(len(PAGE_MAGIC) + _PREFIX.size + header_length)
        columns = tuple(
            ColumnSlot(
                name=slot["name"],
                logical=slot["logical"],
                dtype=slot["dtype"],
                offset=data_start + int(slot["offset"]),
                vocab=None if slot["vocab"] is None else tuple(slot["vocab"]),
            )
            for slot in header["columns"]
        )
        extras = tuple(
            ExtraSlot(
                name=slot["name"],
                dtype=slot["dtype"],
                offset=data_start + int(slot["offset"]),
            )
            for slot in header["extras"]
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise PageFormatError(f"{path}: malformed page header ({exc})") from exc
    for slot in (*columns, *extras):
        end = slot.offset + num_rows * np.dtype(slot.dtype).itemsize
        if end > size:
            raise PageFormatError(
                f"{path}: slot {slot.name!r} claims bytes up to {end}, file has {size}"
            )
    return RelationDescriptor(
        segment=f"file:{path}",
        num_rows=num_rows,
        columns=columns,
        extras=extras,
        path=path,
    )


def open_page(path: str | os.PathLike) -> tuple[MappedRelation, dict[str, np.ndarray]]:
    """Map a page file and rebuild its relation (+extras) over the mapping.

    Constant-time in rows: the only work proportional to anything is the
    header parse (proportional to column count and vocab size).  Columns
    are read-only views over the mapping; TEXT object columns gather
    lazily.  The returned extras (e.g. the ``__weights__`` side array) are
    read-only views too — callers that mutate must replace, never write
    in place, which is already the catalog-wide contract.
    """
    descriptor = read_descriptor(path)
    attached = attach_relation(descriptor)
    relation = MappedRelation._adopt(attached.relation, descriptor, attached)
    return relation, attached.extras
