"""Shared-memory backing for relations: segments, descriptors, attach.

This module places the *storage form* of a relation — numeric column
arrays plus the ``int32`` dictionary-code buffers of TEXT columns — into
one :class:`multiprocessing.shared_memory.SharedMemory` segment, and
describes the layout with a compact, picklable descriptor (segment name
plus per-column dtype/offset, plus each TEXT column's vocab).  Another
process attaches in O(1): it maps the segment and wraps ``np.ndarray``
views over the buffer; the only per-attach materialisation is the
``vocab[codes]`` gather that rebuilds TEXT object columns (shared ``str``
objects, one C loop).  Durable page files (:mod:`repro.storage.pages`)
use the same slot layout and reopen through :func:`attach_relation`.

Ownership and lifecycle
-----------------------
Segments are owned by the creating process.  :class:`SharedRelationHandle`
refcounts one segment: the owner unlinks it exactly once, when the last
reference is released.  Attaching processes never unlink; they also
attach *untracked* — on Python ≤ 3.12 ``SharedMemory`` registers
attachments with ``multiprocessing.resource_tracker``, which would
double-unlink at the attacher's exit, and compensating with
register-then-unregister corrupts the tracker's name set when several
attachers interleave (the tracker keys a plain set, so ``+owner +w1 -w1
+w2 -w2 -owner`` dies on the last unregister).  :func:`_attach_segment`
keeps the registration from ever reaching the tracker instead.
"""

from __future__ import annotations

import mmap
import threading
import uuid
from multiprocessing import resource_tracker, shared_memory
from typing import Mapping, NamedTuple

import numpy as np

from repro.errors import MosaicError, SchemaError
from repro.relational.dtypes import CODES_DTYPE, DType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema

#: Every segment this module creates carries this name prefix, so tests
#: can assert "no mosaic segments leaked" by listing ``/dev/shm``.
SEGMENT_PREFIX = "mosaic-shm-"

#: Column payloads start on 64-byte boundaries (cache-line aligned loads).
_ALIGNMENT = 64

#: Serializes the register-suppression window in :func:`_attach_segment`
#: (pre-3.13 interpreters only; guards concurrent in-process attachers).
_ATTACH_LOCK = threading.Lock()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without resource-tracker registration.

    Attachers never own cleanup, but ``SharedMemory(name=...)`` on
    Python ≤ 3.12 registers the mapping with the resource tracker anyway.
    Unregistering afterwards is not enough: the tracker keeps a plain
    ``set`` of names, so interleaved register/unregister pairs from
    several attachers leave it unbalanced and the owner's final unlink
    then spams ``KeyError`` tracebacks at exit.  3.13+ exposes
    ``track=False``; earlier versions suppress the register call for the
    duration of the map.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: no track parameter
        pass
    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class ColumnSlot(NamedTuple):
    """Where one column's storage array lives inside the segment.

    TEXT columns store their ``int32`` codes and carry the vocab here (a
    tuple of ``str``); other dtypes store the raw array and ``vocab`` is
    ``None``.  ``dtype`` is the numpy dtype string of the stored buffer.
    """

    name: str
    logical: str  # DType value ("INT", "FLOAT", "TEXT", "BOOL")
    dtype: str
    offset: int
    vocab: tuple[str, ...] | None


class ExtraSlot(NamedTuple):
    """A named side array stored alongside the relation (weights, rep ids)."""

    name: str
    dtype: str
    offset: int


class RelationDescriptor(NamedTuple):
    """Everything an attacher needs: no row data, plain tuples.

    ``path`` distinguishes the two segment kinds: ``None`` means a
    ``/dev/shm`` segment named ``segment``; a filesystem path means a
    durable columnar page file (``repro.storage.pages``) that attachers
    memory-map read-only — same slot layout, zero copies, no shared-memory
    segment at all.  File descriptors still carry a unique ``segment``
    string (``"file:<path>"``).  The field defaults to ``None`` so
    descriptors pickled by older code unpickle unchanged.
    """

    segment: str
    num_rows: int
    columns: tuple[ColumnSlot, ...]
    extras: tuple[ExtraSlot, ...]
    path: str | None = None


class _FileSegment:
    """A read-only memory-mapped page file, duck-typed like ``SharedMemory``.

    Exposes ``buf``/``close()`` so :func:`attach_relation` and
    :class:`AttachedRelation` treat file-backed and shm-backed segments
    identically.  Unmapping while views still reference the buffer is the
    same BufferError situation as shm: the mapping then dies with the
    process (the kernel keeps the inode alive even if the file is
    unlinked, so deleting an old checkpoint never invalidates live views).
    """

    __slots__ = ("_mmap", "buf", "name")

    def __init__(self, path: str):
        with open(path, "rb") as handle:
            self._mmap = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self.buf = memoryview(self._mmap)
        self.name = f"file:{path}"

    def close(self) -> None:
        buf, self.buf = self.buf, None
        if buf is not None:
            buf.release()
        try:
            self._mmap.close()
        except BufferError:  # a view escaped; unmapped at process exit
            pass


class AttachedRelation:
    """An attached view of a shared relation (plus its extra arrays).

    ``relation`` columns are read-only numpy views over the mapped
    segment; ``extras`` maps side-array names to read-only views.  Keep
    this object alive while any of those arrays is in use; :meth:`close`
    drops the views and unmaps the segment (never unlinks).
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        relation: Relation,
        extras: dict[str, np.ndarray],
    ):
        self._shm = shm
        self.relation = relation
        self.extras = extras

    def close(self) -> None:
        self.relation = None  # type: ignore[assignment]
        self.extras = {}
        try:
            self._shm.close()
        except BufferError:  # a view escaped; the mapping dies with the process
            pass


class _LazyTextColumns(dict):
    """A relation's column mapping with TEXT object gathers deferred.

    Plan execution reads TEXT columns through their ``(vocab, codes)``
    encodings — codespace predicates, dictionary group codes — so an attached
    relation usually never needs the object arrays at all.  Only
    materialised entries live in the dict storage; looking up a pending
    column runs its ``vocab[codes]`` gather on demand (``__missing__``),
    so any raw-dict fast path sees real arrays or fails loudly, never a
    placeholder.  Enumerating the mapping materialises everything first.
    """

    def __init__(
        self,
        eager: dict[str, np.ndarray],
        pending: dict[str, tuple[np.ndarray, np.ndarray]],
    ):
        super().__init__(eager)
        self._pending = dict(pending)

    def __missing__(self, name: str) -> np.ndarray:
        vocab, codes = self._pending.pop(name)
        column = vocab[codes] if vocab.size else np.empty(len(codes), dtype=object)
        self[name] = column
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


def _storage_arrays(
    relation: Relation, extras: Mapping[str, np.ndarray] | None
) -> tuple[list[tuple[str, str, np.ndarray, tuple[str, ...] | None]], list[tuple[str, np.ndarray]]]:
    """The payload arrays to copy into a segment, in layout order."""
    payloads: list[tuple[str, str, np.ndarray, tuple[str, ...] | None]] = []
    for field in relation.schema:
        if field.dtype is DType.TEXT:
            entry = relation.encoding(field.name)
            if entry is None:
                # Raw-constructed TEXT column: fall back to the memoized
                # dense dictionary (order-preserving, same strings).
                entry = relation.dictionary(field.name)
            vocab, codes = entry
            payloads.append(
                (
                    field.name,
                    field.dtype.value,
                    np.ascontiguousarray(codes, dtype=CODES_DTYPE),
                    tuple(str(v) for v in vocab),
                )
            )
        else:
            payloads.append(
                (
                    field.name,
                    field.dtype.value,
                    np.ascontiguousarray(relation.column(field.name)),
                    None,
                )
            )
    extra_payloads = [
        (name, np.ascontiguousarray(array)) for name, array in (extras or {}).items()
    ]
    return payloads, extra_payloads


def share_relation(
    relation: Relation, extras: Mapping[str, np.ndarray] | None = None
) -> "SharedRelationHandle":
    """Copy ``relation``'s storage into a fresh shared segment.

    ``extras`` are side arrays shipped in the same segment (e.g. a weight
    vector, OPEN repetition ids); they must have ``relation.num_rows``
    elements.  Returns a handle holding one reference — release it to
    unlink the segment.
    """
    payloads, extra_payloads = _storage_arrays(relation, extras)
    for name, array in extra_payloads:
        if array.dtype == object:
            raise SchemaError(f"extra array {name!r} must be numeric")
        if array.shape[0] != relation.num_rows:
            raise SchemaError(
                f"extra array {name!r} has {array.shape[0]} rows, relation has "
                f"{relation.num_rows}"
            )

    offset = 0
    column_slots: list[ColumnSlot] = []
    extra_slots: list[ExtraSlot] = []
    placed: list[tuple[int, np.ndarray]] = []
    for name, logical, array, vocab in payloads:
        offset = -(-offset // _ALIGNMENT) * _ALIGNMENT
        column_slots.append(ColumnSlot(name, logical, array.dtype.str, offset, vocab))
        placed.append((offset, array))
        offset += array.nbytes
    for name, array in extra_payloads:
        offset = -(-offset // _ALIGNMENT) * _ALIGNMENT
        extra_slots.append(ExtraSlot(name, array.dtype.str, offset))
        placed.append((offset, array))
        offset += array.nbytes

    name = f"{SEGMENT_PREFIX}{uuid.uuid4().hex[:16]}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(offset, 1))
    for slot_offset, array in placed:
        if array.size == 0:
            continue
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf, offset=slot_offset)
        view[:] = array
        del view
    descriptor = RelationDescriptor(
        segment=shm.name,
        num_rows=relation.num_rows,
        columns=tuple(column_slots),
        extras=tuple(extra_slots),
    )
    return SharedRelationHandle(shm, descriptor)


def attach_relation(descriptor: RelationDescriptor) -> AttachedRelation:
    """Map a shared segment and rebuild the relation over it (O(1) in rows).

    Numeric columns and code buffers are zero-copy read-only views; TEXT
    object columns are *lazy* — plan execution works in code space, so
    the ``vocab[codes]`` gather only runs if a caller asks for the object
    array (see :class:`_LazyTextColumns`).

    A descriptor with ``path`` set maps the durable page file instead of a
    ``/dev/shm`` segment — byte-identical slot layout, so everything below
    is shared between the two segment kinds.
    """
    if descriptor.path is not None:
        shm = _FileSegment(descriptor.path)
    else:
        shm = _attach_segment(descriptor.segment)
    n = descriptor.num_rows

    def view(dtype: str, offset: int) -> np.ndarray:
        array = np.ndarray(n, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
        array.flags.writeable = False
        return array

    fields: list[Field] = []
    columns: dict[str, np.ndarray] = {}
    pending: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    encodings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for slot in descriptor.columns:
        logical = DType(slot.logical)
        fields.append(Field(slot.name, logical))
        if logical is DType.TEXT:
            assert slot.vocab is not None
            vocab = np.empty(len(slot.vocab), dtype=object)
            vocab[:] = list(slot.vocab)
            codes = view(slot.dtype, slot.offset)
            # Placeholder with the right row count for the constructor's
            # length check; the lazy mapping below replaces it.
            columns[slot.name] = codes
            pending[slot.name] = (vocab, codes)
            encodings[slot.name] = (vocab, codes)
        else:
            columns[slot.name] = view(slot.dtype, slot.offset)
    extras = {slot.name: view(slot.dtype, slot.offset) for slot in descriptor.extras}
    relation = Relation(Schema(fields), columns, encodings=encodings)
    if pending:
        eager = {
            name: array
            for name, array in relation._columns.items()
            if name not in pending
        }
        relation._columns = _LazyTextColumns(eager, pending)
    return AttachedRelation(shm, relation, extras)


class SharedRelationHandle:
    """One owned segment, refcounted; unlinks exactly once at zero refs."""

    def __init__(self, shm: shared_memory.SharedMemory, descriptor: RelationDescriptor):
        self._shm = shm
        self.descriptor = descriptor
        self._refs = 1
        self._lock = threading.Lock()
        self._unlinked = False

    @property
    def segment_name(self) -> str:
        return self.descriptor.segment

    def acquire(self) -> "SharedRelationHandle":
        with self._lock:
            if self._unlinked:
                raise MosaicError(
                    f"shared segment {self.segment_name} was already released"
                )
            self._refs += 1
        return self

    def release(self) -> None:
        """Drop one reference; the last release closes and unlinks."""
        with self._lock:
            if self._unlinked:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            self._unlinked = True
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - escaped view
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - external cleanup raced
            pass
