"""Shared-memory relation segments: round-trips, lifecycle, concurrency."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.errors import MosaicError, SchemaError
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


class TestRoundTrip:
    def test_every_dtype_round_trips(self, rel):
        handle = share_relation(rel)
        try:
            attached = attach_relation(handle.descriptor)
            try:
                assert attached.relation.schema == rel.schema
                for name in rel.column_names:
                    ours, theirs = rel.column(name), attached.relation.column(name)
                    assert ours.dtype == theirs.dtype
                    if ours.dtype == object:
                        assert list(ours) == list(theirs)
                    else:
                        assert ours.tobytes() == theirs.tobytes()
            finally:
                attached.close()
        finally:
            handle.release()

    def test_text_stays_in_code_space(self, rel):
        handle = share_relation(rel)
        try:
            attached = attach_relation(handle.descriptor)
            try:
                encoding = attached.relation.encoding("tag")
                assert encoding is not None
                vocab, codes = encoding
                assert codes.dtype == np.int32
                assert list(vocab[codes]) == list(rel.column("tag"))
            finally:
                attached.close()
        finally:
            handle.release()

    def test_merged_vocab_round_trips(self, rel):
        # concat merges vocabularies code-side; the shared encoding must
        # carry the merged vocab, including entries only one side uses.
        other = Relation.from_columns(
            rel.schema,
            {
                "id": [9],
                "score": [0.0],
                "tag": ["zz"],
                "ok": [False],
            },
        )
        merged = rel.concat(other)
        handle = share_relation(merged)
        try:
            attached = attach_relation(handle.descriptor)
            try:
                assert list(attached.relation.column("tag")) == list(
                    merged.column("tag")
                )
                vocab, _ = attached.relation.encoding("tag")
                assert "zz" in set(vocab)
            finally:
                attached.close()
        finally:
            handle.release()

    def test_empty_relation(self):
        schema = Schema.of(x=DType.INT, t=DType.TEXT)
        empty = Relation.empty(schema)
        handle = share_relation(empty)
        try:
            attached = attach_relation(handle.descriptor)
            try:
                assert attached.relation.num_rows == 0
                assert attached.relation.schema == schema
            finally:
                attached.close()
        finally:
            handle.release()

    def test_extras_round_trip(self, rel):
        weights = np.linspace(0.5, 2.5, rel.num_rows)
        handle = share_relation(rel, extras={"__weights__": weights})
        try:
            attached = attach_relation(handle.descriptor)
            try:
                assert attached.extras["__weights__"].tobytes() == weights.tobytes()
            finally:
                attached.close()
        finally:
            handle.release()

    def test_extras_must_match_row_count(self, rel):
        with pytest.raises(SchemaError):
            share_relation(rel, extras={"__weights__": np.ones(rel.num_rows + 1)})

    def test_attached_views_are_read_only(self, rel):
        handle = share_relation(rel)
        try:
            attached = attach_relation(handle.descriptor)
            try:
                with pytest.raises(ValueError):
                    attached.relation.column("id")[0] = 99
            finally:
                attached.close()
        finally:
            handle.release()


class TestLifecycle:
    def test_release_unlinks_segment(self, rel):
        handle = share_relation(rel)
        name = handle.descriptor.segment
        assert name.startswith(SEGMENT_PREFIX)
        assert _segment_exists(name)
        handle.release()
        assert not _segment_exists(name)

    def test_refcount_keeps_segment_alive(self, rel):
        handle = share_relation(rel)
        name = handle.descriptor.segment
        handle.acquire()
        handle.release()
        assert _segment_exists(name)
        handle.release()
        assert not _segment_exists(name)

    def test_acquire_after_unlink_raises(self, rel):
        handle = share_relation(rel)
        handle.release()
        with pytest.raises(MosaicError):
            handle.acquire()


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
        assert not _segment_exists(handle.descriptor.segment)
