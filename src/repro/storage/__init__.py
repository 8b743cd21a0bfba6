"""Durable columnar storage: mmap-able pages, a WAL, and checkpoints.

See ``ARCHITECTURE.md`` §10.  Three layers:

- :mod:`repro.storage.pages` — the on-disk carrier of the column layout
  (:mod:`repro.relational.layout`), so reopening is an ``mmap`` plus a
  validated header parse (O(1) in rows) and scans read the page file
  zero-copy.
- :mod:`repro.storage.wal` — the framed, checksummed write-ahead log with
  torn-tail recovery and monotonic LSNs.
- :mod:`repro.storage.store` — the :class:`DurableStore` tying both into
  checkpoints, boot-time restore/replay, rollback, and persisted fitted
  models.
"""

from repro.storage.pages import (
    MappedRelation,
    PageFormatError,
    open_page,
    write_page,
)
from repro.storage.store import DurableStore, StorageError, WEIGHTS_EXTRA
from repro.storage.wal import WalError, WriteAheadLog

__all__ = [
    "DurableStore",
    "MappedRelation",
    "PageFormatError",
    "StorageError",
    "WEIGHTS_EXTRA",
    "WalError",
    "WriteAheadLog",
    "open_page",
    "write_page",
]
