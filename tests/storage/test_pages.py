"""The on-disk columnar page format: round-trips, alignment, corruption."""

import os

import numpy as np
import pytest

from repro.relational.dtypes import DType
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.shm import _ALIGNMENT
from repro.storage.pages import (
    MappedRelation,
    PAGE_MAGIC,
    PageFormatError,
    open_page,
    read_descriptor,
    write_page,
)


def sample_relation(rows: int = 100) -> Relation:
    rng = np.random.default_rng(7)
    return Relation.from_columns(
        Schema.of(city=DType.TEXT, pop=DType.INT, area=DType.FLOAT),
        {
            "city": np.asarray(
                [("Ann Arbor", "Boston", "Chicago")[i % 3] for i in range(rows)],
                dtype=object,
            ),
            "pop": rng.integers(0, 10_000, size=rows),
            "area": rng.normal(size=rows),
        },
    )


def test_round_trip_bit_identical(tmp_path):
    relation = sample_relation()
    path = tmp_path / "t.page"
    write_page(path, relation)
    mapped, extras = open_page(path)
    assert extras == {}
    assert isinstance(mapped, MappedRelation)
    assert isinstance(mapped, Relation)
    assert mapped.num_rows == relation.num_rows
    assert mapped.schema == relation.schema
    for name in relation.column_names:
        np.testing.assert_array_equal(mapped.column(name), relation.column(name))


def test_dictionary_encoding_survives(tmp_path):
    relation = sample_relation()
    path = tmp_path / "t.page"
    write_page(path, relation)
    mapped, _ = open_page(path)
    vocab, codes = relation.encoding("city")
    restored_vocab, restored_codes = mapped.encoding("city")
    np.testing.assert_array_equal(vocab, restored_vocab)
    np.testing.assert_array_equal(codes, restored_codes)


def test_extras_round_trip(tmp_path):
    relation = sample_relation()
    weights = np.linspace(0.5, 2.0, relation.num_rows)
    path = tmp_path / "t.page"
    write_page(path, relation, {"__weights__": weights})
    _, extras = open_page(path)
    np.testing.assert_array_equal(extras["__weights__"], weights)
    assert not extras["__weights__"].flags.writeable


def test_slot_offsets_are_aligned(tmp_path):
    path = tmp_path / "t.page"
    write_page(path, sample_relation(), {"w": np.ones(100)})
    descriptor = read_descriptor(path)
    for slot in (*descriptor.columns, *descriptor.extras):
        assert slot.offset % _ALIGNMENT == 0


def test_mapped_views_are_read_only_and_zero_copy(tmp_path):
    path = tmp_path / "t.page"
    write_page(path, sample_relation())
    mapped, _ = open_page(path)
    pops = mapped.column("pop")
    assert not pops.flags.writeable
    assert not pops.flags.owndata  # a view over the mapping, not a copy
    with pytest.raises(ValueError):
        pops[0] = 1


def test_transformations_still_work(tmp_path):
    relation = sample_relation()
    path = tmp_path / "t.page"
    write_page(path, relation)
    mapped, _ = open_page(path)
    filtered = mapped.filter(mapped.column("pop") > 5000)
    expected = relation.filter(relation.column("pop") > 5000)
    assert filtered.num_rows == expected.num_rows
    np.testing.assert_array_equal(filtered.column("city"), expected.column("city"))


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "t.page"
    write_page(path, sample_relation(10))
    write_page(path, sample_relation(50))
    mapped, _ = open_page(path)
    assert mapped.num_rows == 50
    assert not any(name.startswith("t.page.tmp") for name in os.listdir(tmp_path))


def test_missing_file_raises(tmp_path):
    with pytest.raises(PageFormatError):
        read_descriptor(tmp_path / "nope.page")


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "t.page"
    path.write_bytes(b"NOTAPAGE" + b"\x00" * 64)
    with pytest.raises(PageFormatError, match="bad magic"):
        read_descriptor(path)


def test_truncated_payload_raises(tmp_path):
    path = tmp_path / "t.page"
    write_page(path, sample_relation())
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 64])
    with pytest.raises(PageFormatError, match="claims bytes"):
        read_descriptor(path)


def test_truncated_header_raises(tmp_path):
    path = tmp_path / "t.page"
    write_page(path, sample_relation())
    path.write_bytes(path.read_bytes()[: len(PAGE_MAGIC) + 6])
    with pytest.raises(PageFormatError):
        read_descriptor(path)


def test_extra_validation(tmp_path):
    relation = sample_relation(10)
    with pytest.raises(PageFormatError, match="rows"):
        write_page(tmp_path / "a.page", relation, {"w": np.ones(3)})
    with pytest.raises(PageFormatError, match="numeric"):
        write_page(
            tmp_path / "b.page",
            relation,
            {"w": np.asarray(["x"] * 10, dtype=object)},
        )
