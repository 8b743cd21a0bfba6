"""First-class dictionary encodings: build-at-ingest, slice, merge, derive.

The storage contract (see ``Relation``'s module docstring): TEXT columns
are encoded exactly once at ingest; every transformation *slices* the
codes (filter/take/project/rename) or *merges* the vocabs (concat), and
``dictionary()`` derives its dense form from the stored encoding with a
vectorized remap instead of re-factorizing.
"""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational.dtypes import CODES_DTYPE, DType
from repro.relational.relation import Relation, dictionary_stats
from repro.relational.schema import Field, Schema

SCHEMA = Schema([Field("c", DType.TEXT), Field("v", DType.INT)])


def rel(values, ints=None):
    ints = ints if ints is not None else list(range(len(values)))
    return Relation.from_columns(SCHEMA, {"c": values, "v": ints})


def decode(relation, name="c"):
    vocab, codes = relation.encoding(name)
    return [str(v) for v in vocab[codes]] if vocab.size else []


def assert_valid_encoding(relation, name="c"):
    vocab, codes = relation.encoding(name)
    assert codes.dtype == CODES_DTYPE
    assert vocab.dtype == object
    if vocab.size > 1:
        assert np.all(vocab[:-1] < vocab[1:])  # sorted, distinct
    np.testing.assert_array_equal(
        vocab[codes] if vocab.size else np.empty(0, object), relation.column(name)
    )


def test_from_columns_builds_encoding_once():
    before = dictionary_stats()["builds"]
    relation = rel(["b", "a", "b", "c"])
    assert dictionary_stats()["builds"] == before + 1
    assert_valid_encoding(relation)
    vocab, codes = relation.encoding("c")
    np.testing.assert_array_equal(vocab, np.array(["a", "b", "c"], dtype=object))
    np.testing.assert_array_equal(codes, [1, 0, 1, 2])
    # dictionary() derives from the stored encoding — no extra build.
    builds = dictionary_stats()["builds"]
    uniques, dense = relation.dictionary("c")
    assert dictionary_stats()["builds"] == builds
    np.testing.assert_array_equal(uniques, vocab)
    np.testing.assert_array_equal(dense, codes)


def test_filter_and_take_slice_codes_without_rebuilding():
    relation = rel(["b", "a", "b", "c", "a"])
    builds = dictionary_stats()["builds"]
    filtered = relation.filter(np.array([True, False, True, True, False]))
    taken = relation.take(np.array([4, 4, 0]))
    assert dictionary_stats()["builds"] == builds
    assert decode(filtered) == ["b", "b", "c"]
    assert decode(taken) == ["a", "a", "b"]
    assert_valid_encoding(filtered)
    assert_valid_encoding(taken)
    # The vocab object is shared, not copied.
    assert filtered.encoding("c")[0] is relation.encoding("c")[0]


def test_dictionary_densifies_sliced_vocab():
    relation = rel(["b", "a", "b", "c", "a"])
    filtered = relation.filter(np.array([True, False, True, True, False]))
    builds = dictionary_stats()["builds"]
    uniques, dense = filtered.dictionary("c")
    assert dictionary_stats()["builds"] == builds  # derived, not rebuilt
    np.testing.assert_array_equal(uniques, np.array(["b", "c"], dtype=object))
    np.testing.assert_array_equal(dense, [0, 0, 1])


def test_project_with_column_propagate():
    relation = rel(["y", "x", "y"])
    projected = relation.project(["c"])
    extended = relation.with_column("w", DType.FLOAT, [0.0, 1.0, 2.0])
    replaced = relation.with_column("c", DType.TEXT, ["a", "a", "b"])
    assert projected.encoding("c") is not None
    assert extended.encoding("c") is not None
    # Replacing a TEXT column drops its (now wrong) encoding.
    assert replaced.encoding("c") is None
    assert_valid_encoding(projected)


def test_concat_shared_vocab_concatenates_codes():
    left = rel(["a", "b"])
    right = left.filter(np.array([True, False]))
    merged = left.concat(right)
    assert_valid_encoding(merged)
    assert decode(merged) == ["a", "b", "a"]
    assert merged.encoding("c")[0] is left.encoding("c")[0]


def test_concat_merges_disjoint_vocabs_in_code_space():
    left = rel(["b", "d"])
    right = rel(["a", "c", "d"])
    builds = dictionary_stats()["builds"]
    merged = left.concat(right)
    assert dictionary_stats()["builds"] == builds  # merged, not refactorized
    vocab, codes = merged.encoding("c")
    np.testing.assert_array_equal(vocab, np.array(["a", "b", "c", "d"], dtype=object))
    np.testing.assert_array_equal(codes, [1, 3, 0, 2, 3])
    assert decode(merged) == ["b", "d", "a", "c", "d"]


def test_concat_with_empty_relation_keeps_encoding():
    empty = Relation.empty(SCHEMA)
    relation = rel(["z", "y"])
    merged = empty.concat(relation)
    assert decode(merged) == ["z", "y"]
    assert_valid_encoding(merged)


def test_sort_by_uses_sliced_encodings():
    relation = rel(["c", "a", "b"]).filter(np.array([True, True, True]))
    ordered = relation.sort_by(["c"])
    assert decode(ordered) == ["a", "b", "c"]
    assert_valid_encoding(ordered)


def test_from_codes_installs_without_factorizing():
    builds = dictionary_stats()["builds"]
    relation = Relation.from_codes(
        SCHEMA,
        {"c": (["a", "b"], np.array([1, 0, 1]))},
        {"v": [1, 2, 3]},
    )
    assert dictionary_stats()["builds"] == builds
    assert [r["c"] for r in relation.to_pylist()] == ["b", "a", "b"]
    assert_valid_encoding(relation)


def test_from_codes_rejects_unsorted_vocab_and_non_text():
    with pytest.raises(SchemaError):
        Relation.from_codes(SCHEMA, {"c": (["b", "a"], [0, 1])}, {"v": [1, 2]})
    with pytest.raises(SchemaError):
        Relation.from_codes(SCHEMA, {"v": ([1, 2], [0, 1])}, {"c": ["a", "b"]})


def test_from_codes_rejects_out_of_range_codes():
    with pytest.raises(SchemaError):
        Relation.from_codes(SCHEMA, {"c": (["a", "b"], [-1, 0])}, {"v": [1, 2]})
    with pytest.raises(SchemaError):
        Relation.from_codes(SCHEMA, {"c": (["a", "b"], [0, 2])}, {"v": [1, 2]})
    with pytest.raises(SchemaError):
        Relation.from_codes(SCHEMA, {"c": ([], [0])}, {"v": [1]})


def test_raw_constructor_has_no_encoding_and_dictionary_still_works():
    column = np.empty(3, dtype=object)
    column[:] = ["b", "a", "b"]
    relation = Relation(SCHEMA, {"c": column, "v": np.arange(3)})
    assert relation.encoding("c") is None
    uniques, codes = relation.dictionary("c")
    np.testing.assert_array_equal(uniques, np.array(["a", "b"], dtype=object))
    np.testing.assert_array_equal(codes, [1, 0, 1])


def test_reuse_counter_moves_on_reuse():
    assert set(dictionary_stats()) == {
        "builds", "reuse_hits", "grouping_builds", "grouping_reuse_hits"
    }
    relation = rel(["a", "b", "a"])
    before = dictionary_stats()["reuse_hits"]
    relation.dictionary("c")
    relation.dictionary("c")
    relation.encoding("c")
    assert dictionary_stats()["reuse_hits"] >= before + 3
