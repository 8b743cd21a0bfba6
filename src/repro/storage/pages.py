"""The page-file carrier of the column layout: mmap-able, written atomically.

One page file holds one relation's storage form as
:mod:`repro.relational.layout` plans it — each numeric column (and each
TEXT column's ``int32`` dictionary codes) as a raw little-endian slot on
a 64-byte boundary, plus optional extra side arrays (sample weights) —
behind a small prefix and the layout header as JSON.

File layout::

    [0:8)    magic  b"MOSAICPG"
    [8:12)   format version (u32 LE)
    [12:16)  header length H (u32 LE)
    [16:16+H) layout header, JSON (utf-8)
    ...      zero padding to the 64-byte-aligned data start
    payload  the slots; header offsets are *relative to the data start*

*Reopening is O(1) in rows*: ``mmap`` the file, parse the header, and
let :func:`~repro.relational.layout.decode_relation` validate it and wrap
read-only ``np.ndarray`` views over the mapping — no deserialization
pass, TEXT object columns gathered lazily.  The decoder checks every
header field against the file, so a corrupt or hostile page raises
:class:`PageFormatError`, never garbage or a crash.

Writes are atomic: temp file in the same directory, flushed and fsynced,
then ``os.replace`` onto the final name — a reader never observes a
half-written page.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from typing import Mapping

import numpy as np

from repro.errors import MosaicError
from repro.relational.layout import aligned, decode_relation, pack, plan_slots
from repro.relational.relation import Relation

PAGE_MAGIC = b"MOSAICPG"
PAGE_VERSION = 1

_PREFIX = struct.Struct("<II")  # format version, header length
_HEAD = len(PAGE_MAGIC) + _PREFIX.size


class PageFormatError(MosaicError):
    """A page file is missing, truncated, or structurally invalid."""


class MappedRelation(Relation):
    """A relation whose columns are read-only views over a mapped page file.

    Behaves exactly like any :class:`Relation` (transformations return
    plain relations); the extra slot holds the file mapping the views
    read.
    """

    __slots__ = ("_mapping",)

    @classmethod
    def _adopt(cls, relation: Relation, mapping: mmap.mmap) -> "MappedRelation":
        mapped = cls.__new__(cls)
        mapped._schema = relation._schema
        mapped._columns = relation._columns
        mapped._nrows = relation._nrows
        mapped._dictionaries = relation._dictionaries
        mapped._encodings = relation._encodings
        mapped._groupings = relation._groupings
        mapped._mapping = mapping
        return mapped


def write_page(path: str | os.PathLike, relation: Relation, extras: Mapping[str, np.ndarray] | None = None) -> int:
    """Write ``relation`` (+ side arrays) to ``path`` atomically.

    Returns the file size in bytes.
    """
    layout = plan_slots(relation, extras)
    header = json.dumps(layout.header, ensure_ascii=False).encode("utf-8")
    page = pack(PAGE_MAGIC + _PREFIX.pack(PAGE_VERSION, len(header)) + header, layout)
    path = os.fspath(path)
    temp = f"{path}.tmp.{os.getpid()}"
    with open(temp, "wb") as handle:
        handle.write(page)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    return len(page)


def open_page(path: str | os.PathLike) -> tuple[MappedRelation, dict[str, np.ndarray]]:
    """Map a page file and rebuild its relation (+extras) over the mapping.

    Constant-time in rows apart from the decoder's checks on TEXT codes
    and BOOL bytes.  Columns and the returned extras (e.g. the
    ``__weights__`` side array) are read-only views over the mapping —
    callers that mutate must replace, never write in place, which is
    already the catalog-wide contract.  Raises :class:`PageFormatError`
    for a missing, truncated or invalid page; the checkpoint loader
    treats that as a corrupt checkpoint.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:  # ValueError: an empty file
        raise PageFormatError(f"cannot map page {path}: {exc}") from exc
    data = memoryview(mapping)
    if data[: len(PAGE_MAGIC)] != PAGE_MAGIC:
        raise PageFormatError(f"{path}: not a mosaic page (bad magic)")
    if len(data) < _HEAD:
        raise PageFormatError(f"{path}: truncated page prefix")
    version, header_length = _PREFIX.unpack_from(data, len(PAGE_MAGIC))
    if version != PAGE_VERSION:
        raise PageFormatError(f"{path}: unsupported page version {version}")
    if _HEAD + header_length > len(data):
        raise PageFormatError(f"{path}: truncated page header")
    try:
        header = json.loads(bytes(data[_HEAD : _HEAD + header_length]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PageFormatError(f"{path}: malformed page header ({exc})") from exc
    try:
        relation, extras = decode_relation(
            header, data[aligned(_HEAD + header_length) :], PageFormatError
        )
    except PageFormatError as exc:
        raise PageFormatError(f"{path}: {exc}") from None
    return MappedRelation._adopt(relation, mapping), extras
