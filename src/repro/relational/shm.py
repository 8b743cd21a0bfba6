"""Shared-memory carrier of the column layout: create, attach, release.

:func:`share_relation` copies a relation's storage form — planned by
:func:`repro.relational.layout.plan_slots` — into one
:class:`multiprocessing.shared_memory.SharedMemory` segment.  Its
descriptor is the layout header plus the segment name: a plain,
picklable dict.  Another process attaches without copying through
:func:`repro.relational.layout.decode_relation`, which wraps read-only
``np.ndarray`` views over the segment and gathers TEXT object columns
lazily.  Nothing in the engine shares segments any more; the benchmark's
layer probe times this carrier.

Ownership and lifecycle
-----------------------
The creating process owns a segment through one
:class:`SharedRelationHandle`, whose :meth:`~SharedRelationHandle.release`
closes and unlinks it exactly once.  Attaching processes never unlink;
they also attach *untracked* — on Python ≤ 3.12 ``SharedMemory`` registers
attachments with ``multiprocessing.resource_tracker``, which would
double-unlink at the attacher's exit, and compensating with
register-then-unregister corrupts the tracker's name set when several
attachers interleave (the tracker keys a plain set, so ``+owner +w1 -w1
+w2 -w2 -owner`` dies on the last unregister).  :func:`_attach_segment`
keeps the registration from ever reaching the tracker instead.
"""

from __future__ import annotations

import threading
import uuid
from multiprocessing import resource_tracker, shared_memory
from typing import Mapping

import numpy as np

from repro.errors import MosaicError
from repro.relational.layout import decode_relation, pack, plan_slots
from repro.relational.relation import Relation

#: Every segment this module creates carries this name prefix, so tests
#: can assert "no mosaic segments leaked" by listing ``/dev/shm``.
SEGMENT_PREFIX = "mosaic-shm-"

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




def share_relation(
    relation: Relation, extras: Mapping[str, np.ndarray] | None = None
) -> "SharedRelationHandle":
    """Copy ``relation``'s storage form into a fresh shared segment.

    ``extras`` are side arrays shipped in the same segment (e.g. a weight
    vector), one number per row.  Returns the segment's owning handle —
    release it to unlink the segment.
    """
    layout = plan_slots(relation, extras)
    name = f"{SEGMENT_PREFIX}{uuid.uuid4().hex[:16]}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(layout.nbytes, 1))
    shm.buf[: layout.nbytes] = pack(b"", layout)
    return SharedRelationHandle(shm, {**layout.header, "segment": shm.name})


def attach_relation(descriptor: dict) -> AttachedRelation:
    """Map a shared segment and rebuild the relation over it, zero-copy."""
    shm = _attach_segment(descriptor["segment"])
    relation, extras = decode_relation(descriptor, shm.buf, MosaicError)
    return AttachedRelation(shm, relation, extras)


class SharedRelationHandle:
    """The one owner of a segment; the first :meth:`release` unlinks it."""

    def __init__(self, shm: shared_memory.SharedMemory, descriptor: dict):
        self._shm = shm
        self.descriptor = descriptor
        self._lock = threading.Lock()
        self._released = False

    def release(self) -> None:
        """Close and unlink the segment; later calls do nothing."""
        with self._lock:
            if self._released:
                return
            self._released = True
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - escaped view
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - external cleanup raced
            pass
