"""Vectorized grouped-aggregation kernels vs. the per-group reference.

The kernel in :mod:`repro.relational.kernels` must agree exactly with
applying the row-wise reference ``compute_aggregate`` (``oracles.py``
beside this file) group by group, for every aggregate function, weighted
and unweighted, across single-key, multi-key, and ungrouped shapes.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.relational.aggregates import AggregateSpec
from repro.relational.dtypes import DType
from repro.relational.expressions import ColumnRef
from repro.relational.groupby import distinct_indices, group_rows
from repro.relational.kernels import grouped_aggregate
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema

# Loaded by path: other test directories have an ``oracles`` module too,
# and test directories without packages share one module namespace.
_spec = importlib.util.spec_from_file_location(
    "relational_oracles", Path(__file__).with_name("oracles.py")
)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)
compute_aggregate = oracles.compute_aggregate


def make_relation(rng, n):
    return Relation.from_dict(
        {
            "a": rng.choice(["x", "y", "z"], size=n).tolist(),
            "b": rng.integers(0, 4, size=n),
            "v": rng.integers(-50, 50, size=n),
            "f": rng.normal(size=n),
        }
    )


def reference_aggregate(relation, keys, specs, out_schema, weights):
    """The seed implementation: per-group take + Python-row loop."""
    rows = []
    for key, indices in group_rows(relation, keys):
        group_weights = None if weights is None else weights[indices]
        if group_weights is not None and not np.any(group_weights > 0):
            continue
        group_relation = relation.take(indices)
        row = list(key)
        for spec in specs:
            row.append(compute_aggregate(spec, group_relation, group_weights))
        rows.append(tuple(row))
    return Relation.from_rows(out_schema, rows)


def specs_and_schema(keys, weighted, schema):
    specs = [
        AggregateSpec("COUNT", None, "n"),
        AggregateSpec("SUM", ColumnRef("v"), "s"),
        AggregateSpec("AVG", ColumnRef("f"), "m"),
        AggregateSpec("MIN", ColumnRef("v"), "lo"),
        AggregateSpec("MAX", ColumnRef("f"), "hi"),
    ]
    fields = [Field(k, schema.dtype(k)) for k in keys]
    fields += [Field(s.alias, s.output_dtype(schema, weighted)) for s in specs]
    return specs, Schema(fields)


@pytest.mark.parametrize("keys", [["a"], ["a", "b"], []])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_matches_reference(keys, weighted, seed):
    rng = np.random.default_rng(seed)
    relation = make_relation(rng, 200)
    weights = None
    if weighted:
        weights = rng.uniform(0, 2, size=200)
        weights[weights < 0.4] = 0.0  # some zero-weight rows and groups
    specs, out_schema = specs_and_schema(keys, weighted, relation.schema)

    fast = grouped_aggregate(relation, keys, keys, specs, out_schema, weights)
    slow = reference_aggregate(relation, keys, specs, out_schema, weights)
    assert fast.equals(slow)


def test_kernel_all_zero_weight_group_dropped():
    relation = Relation.from_dict({"k": ["a", "a", "b"], "v": [1, 2, 3]})
    weights = np.array([1.0, 1.0, 0.0])
    specs = [AggregateSpec("COUNT", None, "n")]
    out_schema = Schema([Field("k", DType.TEXT), Field("n", DType.FLOAT)])
    out = grouped_aggregate(relation, ["k"], ["k"], specs, out_schema, weights)
    assert out.to_pylist() == [{"k": "a", "n": 2.0}]


def test_kernel_empty_relation_grouped_is_empty():
    relation = Relation.from_dict({"k": [], "v": []})
    specs = [AggregateSpec("SUM", ColumnRef("v"), "s")]
    out_schema = Schema([Field("k", DType.TEXT), Field("s", DType.FLOAT)])
    out = grouped_aggregate(relation, ["k"], ["k"], specs, out_schema, None)
    assert out.num_rows == 0


def test_kernel_ungrouped_empty_sum_raises():
    relation = Relation.from_dict({"v": np.array([], dtype=np.int64)})
    specs = [AggregateSpec("SUM", ColumnRef("v"), "s")]
    out_schema = Schema([Field("s", DType.INT)])
    with pytest.raises(SchemaError, match="zero rows"):
        grouped_aggregate(relation, [], [], specs, out_schema, None)


def test_kernel_int_sum_exact_beyond_float53():
    relation = Relation.from_dict(
        {"k": ["a", "a"], "v": np.array([2**62, 1], dtype=np.int64)}
    )
    specs = [AggregateSpec("SUM", ColumnRef("v"), "s")]
    out_schema = Schema([Field("k", DType.TEXT), Field("s", DType.INT)])
    out = grouped_aggregate(relation, ["k"], ["k"], specs, out_schema, None)
    # float64 accumulation would truncate the +1; int64 must not.
    assert out.column("s")[0] == 2**62 + 1


def test_kernel_rejects_text_sum():
    relation = Relation.from_dict({"k": ["a"], "t": ["oops"]})
    specs = [AggregateSpec("SUM", ColumnRef("t"), "s")]
    out_schema = Schema([Field("k", DType.TEXT), Field("s", DType.FLOAT)])
    with pytest.raises(TypeMismatchError, match="numeric"):
        grouped_aggregate(relation, ["k"], ["k"], specs, out_schema, None)


class TestGroupCodes:
    def test_codes_align_with_group_rows(self):
        rng = np.random.default_rng(3)
        relation = make_relation(rng, 120)
        codes, num_groups, first = relation.group_codes(["a", "b"])
        groups = group_rows(relation, ["a", "b"])
        assert num_groups == len(groups)
        for group_id, (_, indices) in enumerate(groups):
            assert np.array_equal(np.flatnonzero(codes == group_id), np.sort(indices))
            assert first[group_id] == indices.min()

    def test_no_keys_single_group(self):
        relation = Relation.from_dict({"v": [1, 2, 3]})
        codes, num_groups, first = relation.group_codes([])
        assert codes.tolist() == [0, 0, 0]
        assert num_groups == 1
        assert first.tolist() == [0]

    def test_no_keys_empty_relation_still_one_group(self):
        relation = Relation.from_dict({"v": np.array([], dtype=np.int64)})
        codes, num_groups, first = relation.group_codes([])
        assert codes.size == 0
        assert num_groups == 1
        assert first.size == 0


class TestDistinctIndices:
    def test_first_occurrences_in_key_order(self):
        relation = Relation.from_dict({"k": ["b", "a", "b", "a", "c"]})
        # key-sorted order: a (first at 1), b (first at 0), c (first at 4)
        assert distinct_indices(relation, ["k"]).tolist() == [1, 0, 4]

    def test_empty_relation(self):
        relation = Relation.from_dict({"k": []})
        assert distinct_indices(relation, ["k"]).size == 0

    def test_multi_key(self):
        relation = Relation.from_dict(
            {"k": ["a", "a", "b", "a"], "j": [1, 2, 1, 1]}
        )
        assert sorted(distinct_indices(relation, ["k", "j"]).tolist()) == [0, 1, 2]


class TestFromGroups:
    def test_columnar_construction(self):
        schema = Schema([Field("k", DType.TEXT), Field("n", DType.INT)])
        out = Relation.from_groups(schema, [np.array(["a", "b"], dtype=object), np.array([1.0, 2.0])])
        assert out.to_pylist() == [{"k": "a", "n": 1}, {"k": "b", "n": 2}]
        assert out.schema.dtype("n") is DType.INT

    def test_arity_mismatch_rejected(self):
        schema = Schema([Field("k", DType.TEXT), Field("n", DType.INT)])
        with pytest.raises(SchemaError, match="arity"):
            Relation.from_groups(schema, [np.array(["a"], dtype=object)])
