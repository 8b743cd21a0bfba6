"""Shared-memory segments: lifecycle and concurrent attach.

The layout itself (every dtype, vocabularies, extras, read-only views)
is checked across all three carriers in
``tests/storage/test_layout_roundtrip.py``.
"""

import multiprocessing
import os

import pytest

from repro.relational.dtypes import DType
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.shm import (
    SEGMENT_PREFIX,
    attach_relation,
    share_relation,
)


def _segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


@pytest.fixture
def rel():
    schema = Schema.of(id=DType.INT, score=DType.FLOAT, tag=DType.TEXT, ok=DType.BOOL)
    return Relation.from_columns(
        schema,
        {
            "id": [3, 1, 4, 1, 5],
            "score": [0.5, -1.5, 2.25, float("nan"), 3.5],
            "tag": ["b", "a", "b", "c", "a"],
            "ok": [True, False, True, True, False],
        },
    )


class TestLifecycle:
    def test_release_unlinks_segment(self, rel):
        handle = share_relation(rel)
        name = handle.descriptor["segment"]
        assert name.startswith(SEGMENT_PREFIX)
        assert _segment_exists(name)
        handle.release()
        assert not _segment_exists(name)

    def test_release_is_idempotent(self, rel):
        handle = share_relation(rel)
        handle.release()
        handle.release()
        assert not _segment_exists(handle.descriptor["segment"])


def _attach_and_report(descriptor, column, queue):
    attached = attach_relation(descriptor)
    try:
        values = attached.relation.column(column)
        queue.put((os.getpid(), list(values)))
    finally:
        attached.close()


class TestConcurrentAttach:
    def test_two_processes_attach_same_segment(self, rel):
        handle = share_relation(rel)
        try:
            ctx = multiprocessing.get_context(
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
            queue = ctx.Queue()
            workers = [
                ctx.Process(
                    target=_attach_and_report,
                    args=(handle.descriptor, "tag", queue),
                )
                for _ in range(2)
            ]
            for worker in workers:
                worker.start()
            reports = [queue.get(timeout=30) for _ in workers]
            for worker in workers:
                worker.join(timeout=30)
                assert worker.exitcode == 0
            pids = {pid for pid, _ in reports}
            assert len(pids) == 2  # genuinely two distinct processes
            for _, values in reports:
                assert values == list(rel.column("tag"))
        finally:
            handle.release()
        assert not _segment_exists(handle.descriptor["segment"])
