"""One relation's storage form in aligned slots: one encoder, one decoder.

A relation is stored as its *storage form*: each INT/FLOAT/BOOL column
as its raw little-endian array, each TEXT column as its ``int32``
dictionary codes with the vocabulary in the header.  Optional *extras*
(named numeric side arrays of one value per row, e.g. sample weights)
follow the columns.  Every slot starts on a 64-byte boundary.

The layout header is a plain dict::

    {"num_rows": n,
     "columns": [{"name", "logical", "dtype", "offset", "vocab"}, ...],
     "extras": [{"name", "dtype", "offset"}, ...]}

``offset`` is relative to the *data start*, the first byte of the first
slot.  Three carriers move the same header and slots:

- :mod:`repro.relational.shm` puts the slots in a shared-memory segment
  (data start 0) and hands the header over in-process;
- :mod:`repro.storage.pages` writes a page file: prefix, JSON header,
  padding, slots;
- :mod:`repro.server.protocol` sends a RESULT payload: ``u32`` header
  length, JSON header plus the result's metadata, padding, slots.

:func:`plan_slots` is the encoder, :func:`pack` writes a head and the
planned slots as bytes and :func:`decode_relation` is the one decoder.  The
decoder trusts nothing in the header: every check a hostile page or frame
could fail raises the carrier's error type, never an ``AssertionError``,
a numpy error or a crash.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping, NamedTuple

import numpy as np

from repro.errors import MosaicError, SchemaError
from repro.relational.dtypes import CODES_DTYPE, DType
from repro.relational.relation import Relation, _decode
from repro.relational.schema import Field, Schema

#: Slots start on 64-byte boundaries (cache-line aligned loads).
ALIGNMENT = 64

#: The one storage dtype each logical type may carry.
_STORAGE_DTYPES = {
    dtype: (CODES_DTYPE if dtype is DType.TEXT else dtype.numpy_dtype)
    for dtype in DType
}
_LOGICAL = {dtype.value: dtype for dtype in DType}

#: Extras are fixed-size numbers: bool, signed, unsigned, float.
_EXTRA_KINDS = "biuf"


def aligned(offset: int) -> int:
    """``offset`` rounded up to the next slot boundary."""
    return -(-offset // ALIGNMENT) * ALIGNMENT


class Layout(NamedTuple):
    """A planned layout: the header, the arrays at their offsets, the size."""

    header: dict
    slots: tuple[tuple[int, np.ndarray], ...]
    nbytes: int


def plan_slots(
    relation: Relation, extras: Mapping[str, np.ndarray] | None = None
) -> Layout:
    """The storage form of ``relation`` (+ ``extras``) in aligned slots.

    ``nbytes`` is the end of the last slot: no padding follows it.
    Raises :class:`SchemaError` for an extra that is not one number per
    row.
    """
    offset = 0
    slots: list[tuple[int, np.ndarray]] = []

    def place(array: np.ndarray) -> int:
        nonlocal offset
        start = aligned(offset)
        slots.append((start, array))
        offset = start + array.nbytes
        return start

    columns = []
    for field in relation.schema:
        vocab = None
        if field.dtype is DType.TEXT:
            # A raw-constructed TEXT column has no stored encoding: fall
            # back to the memoized dense dictionary (same strings).
            raw_vocab, codes = relation.encoding(field.name) or relation.dictionary(
                field.name
            )
            vocab = [str(value) for value in raw_vocab]
            array = np.ascontiguousarray(codes, dtype=CODES_DTYPE)
        else:
            array = np.ascontiguousarray(
                relation.column(field.name), dtype=field.dtype.numpy_dtype
            )
        columns.append(
            {
                "name": field.name,
                "logical": field.dtype.value,
                "dtype": array.dtype.str,
                "offset": place(array),
                "vocab": vocab,
            }
        )
    extra_slots = []
    for name, values in (extras or {}).items():
        array = np.ascontiguousarray(values)
        if array.dtype.kind not in _EXTRA_KINDS:
            raise SchemaError(f"extra array {name!r} must be numeric")
        if array.shape != (relation.num_rows,):
            raise SchemaError(
                f"extra array {name!r} has shape {array.shape}, relation has "
                f"{relation.num_rows} rows"
            )
        extra_slots.append(
            {"name": name, "dtype": array.dtype.str, "offset": place(array)}
        )
    header = {"num_rows": relation.num_rows, "columns": columns, "extras": extra_slots}
    return Layout(header, tuple(slots), offset)


def pack(head: bytes, layout: Layout) -> bytes:
    """``head``, zero padding to the aligned data start, then the slots."""
    position = start = aligned(len(head))
    parts = [head, bytes(start - len(head))]
    for offset, array in layout.slots:
        parts.append(bytes(start + offset - position))
        parts.append(array.tobytes())
        position = start + offset + array.nbytes
    return b"".join(parts)


def decode_relation(
    header, buffer, error: type[MosaicError]
) -> tuple[Relation, dict[str, np.ndarray]]:
    """Validate ``header`` against ``buffer``, then build the relation.

    ``buffer`` starts at the data start.  Columns and extras are
    read-only zero-copy views over it; TEXT object columns are gathered
    lazily (see :class:`_LazyTextColumns`), since plan execution reads
    them through their ``(vocab, codes)`` encodings.  Any header or
    payload that does not describe a valid relation raises ``error``.
    Keys beyond the layout's are ignored, so a carrier may add its own.
    """
    buffer = memoryview(buffer)
    size = buffer.nbytes
    num_rows, column_slots, extra_slots = _unpack(_HEADER_KEYS, header, "layout header", error)
    if type(num_rows) is not int or num_rows < 0:
        raise error(f"num_rows must be an int >= 0, got {num_rows!r}")
    if not isinstance(column_slots, list) or not isinstance(extra_slots, list):
        raise error("layout header: columns and extras must be lists")
    spans: list[tuple[int, int, str]] = []

    def view(where: str, dtype: np.dtype, offset) -> np.ndarray:
        if type(offset) is not int or offset < 0 or offset % ALIGNMENT:
            raise error(
                f"{where}: offset {offset!r} is not a multiple of {ALIGNMENT} >= 0"
            )
        end = offset + num_rows * dtype.itemsize
        if end > size:
            raise error(f"{where} claims bytes up to {end}, buffer has {size}")
        spans.append((offset, end, where))
        array = np.ndarray(num_rows, dtype=dtype, buffer=buffer, offset=offset)
        array.flags.writeable = False
        return array

    fields: list[Field] = []
    columns: dict[str, np.ndarray] = {}
    encodings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for position, slot in enumerate(column_slots):
        name, logical, dtype, offset, raw_vocab = _unpack(
            _COLUMN_KEYS, slot, f"column {position}", error
        )
        where = f"column {name!r}"
        kind = _LOGICAL.get(logical) if isinstance(logical, str) else None
        if kind is None:
            raise error(f"{where}: unknown logical type {logical!r}")
        try:
            fields.append(Field(name, kind))
        except SchemaError as exc:
            raise error(str(exc)) from None
        storage = _STORAGE_DTYPES[kind]
        if dtype != storage.str:
            raise error(f"{where}: dtype {dtype!r} is not {kind.value}'s {storage.str!r}")
        array = view(where, storage, offset)
        if kind is DType.TEXT:
            vocab = _checked_vocab(raw_vocab, where, error)
            if num_rows and (array.min() < 0 or array.max() >= len(vocab)):
                raise error(f"{where}: codes fall outside [0, {len(vocab)})")
            encodings[name] = (vocab, array)
        elif raw_vocab is not None:
            raise error(f"{where}: a {kind.value} column has no vocab")
        elif kind is DType.BOOL and num_rows and array.view(np.uint8).max() > 1:
            raise error(f"{where}: BOOL bytes must be 0 or 1")
        # TEXT columns hold their codes as a placeholder of the right
        # length; _LazyTextColumns replaces it below.
        columns[name] = array
    extras: dict[str, np.ndarray] = {}
    for position, slot in enumerate(extra_slots):
        name, dtype, offset = _unpack(_EXTRA_KEYS, slot, f"extra {position}", error)
        where = f"extra {name!r}"
        if not isinstance(name, str) or name in extras:
            raise error(f"{where}: extra names must be distinct strings")
        try:
            storage = np.dtype(dtype) if isinstance(dtype, str) else None
        except (TypeError, ValueError):
            storage = None
        if storage is None or storage.kind not in _EXTRA_KINDS:
            raise error(f"{where}: dtype {dtype!r} is not a fixed-size number")
        extras[name] = view(where, storage, offset)
    spans.sort()
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        if start < end:
            raise error(f"{first} and {second} overlap")
    try:
        relation = Relation(Schema(fields), columns, encodings=encodings)
    except SchemaError as exc:
        raise error(str(exc)) from None
    if encodings:
        eager = {
            name: array for name, array in relation._columns.items() if name not in encodings
        }
        relation._columns = _LazyTextColumns(eager, encodings)
    return relation, extras


_HEADER_KEYS = itemgetter("num_rows", "columns", "extras")
_COLUMN_KEYS = itemgetter("name", "logical", "dtype", "offset", "vocab")
_EXTRA_KEYS = itemgetter("name", "dtype", "offset")


def _unpack(keys: itemgetter, entry, where: str, error: type[MosaicError]) -> tuple:
    if not isinstance(entry, dict):
        raise error(f"{where}: not an object")
    try:
        return keys(entry)
    except KeyError as exc:
        raise error(f"{where}: missing {exc}") from None


def _checked_vocab(raw, where: str, error: type[MosaicError]) -> np.ndarray:
    if not isinstance(raw, list) or not all(isinstance(value, str) for value in raw):
        raise error(f"{where}: vocab must be a list of str")
    vocab = np.empty(len(raw), dtype=object)
    vocab[:] = raw
    if vocab.size > 1 and not np.all(vocab[:-1] < vocab[1:]):
        raise error(f"{where}: vocab must be strictly increasing")
    return vocab


class _LazyTextColumns(dict):
    """A relation's column mapping with TEXT object gathers deferred.

    Plan execution reads TEXT columns through their ``(vocab, codes)``
    encodings — codespace predicates, dictionary group codes — so a
    decoded relation usually never needs the object arrays at all.  Only
    materialised entries live in the dict storage; looking up a pending
    column runs its ``vocab[codes]`` gather on demand (``__missing__``),
    so any raw-dict fast path sees real arrays or fails loudly, never a
    placeholder.  Enumerating the mapping materialises everything first.
    A column leaves ``_pending`` only after it is stored, so a concurrent
    reader never misses it (``len`` may count it twice meanwhile).
    """

    __slots__ = ("_pending",)

    def __init__(
        self,
        eager: dict[str, np.ndarray],
        pending: dict[str, tuple[np.ndarray, np.ndarray]],
    ):
        super().__init__(eager)
        self._pending = dict(pending)

    def __missing__(self, name: str) -> np.ndarray:
        entry = self._pending.get(name)
        if entry is None:
            column = dict.get(self, name)
            if column is None:
                raise KeyError(name)
            return column
        column = self.setdefault(name, _decode(*entry))
        self._pending.pop(name, None)
        return column

    def _materialize_all(self) -> None:
        for name in list(self._pending):
            self[name]

    def __contains__(self, name) -> bool:
        return super().__contains__(name) or name in self._pending

    def __len__(self) -> int:
        return super().__len__() + len(self._pending)

    def __iter__(self):
        self._materialize_all()
        return super().__iter__()

    def keys(self):
        self._materialize_all()
        return super().keys()

    def values(self):
        self._materialize_all()
        return super().values()

    def items(self):
        self._materialize_all()
        return super().items()
