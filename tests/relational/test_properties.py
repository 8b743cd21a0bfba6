"""Property-based tests (hypothesis) for the relational substrate invariants."""

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.aggregates import AggregateSpec
from repro.relational.expressions import ColumnRef
from repro.relational.groupby import group_rows
from repro.relational.relation import Relation

# Loaded by path: other test directories have an ``oracles`` module too,
# and test directories without packages share one module namespace.
_spec = importlib.util.spec_from_file_location(
    "relational_oracles", Path(__file__).with_name("oracles.py")
)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)
compute_aggregate = oracles.compute_aggregate

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
tags = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def tagged_relation(draw, min_rows=1, max_rows=60):
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    values = draw(st.lists(floats, min_size=n, max_size=n))
    labels = draw(st.lists(tags, min_size=n, max_size=n))
    return Relation.from_dict({"v": values, "tag": labels})


@given(tagged_relation())
@settings(max_examples=60)
def test_group_rows_partitions_all_rows(rel):
    """Groups are a disjoint cover of the row indices."""
    groups = group_rows(rel, ["tag"])
    combined = np.concatenate([idx for _, idx in groups])
    assert sorted(combined.tolist()) == list(range(rel.num_rows))
    assert len(set(combined.tolist())) == rel.num_rows


@given(tagged_relation())
@settings(max_examples=60)
def test_grouped_counts_sum_to_total(rel):
    groups = group_rows(rel, ["tag"])
    total = sum(len(idx) for _, idx in groups)
    assert total == rel.num_rows


@given(tagged_relation())
@settings(max_examples=60)
def test_weighted_sum_linear_in_weights(rel):
    """SUM with weights w1+w2 equals SUM with w1 plus SUM with w2."""
    rng = np.random.default_rng(0)
    w1 = rng.random(rel.num_rows)
    w2 = rng.random(rel.num_rows)
    spec = AggregateSpec("SUM", ColumnRef("v"), "s")
    lhs = compute_aggregate(spec, rel, w1 + w2)
    rhs = compute_aggregate(spec, rel, w1) + compute_aggregate(spec, rel, w2)
    assert np.isclose(lhs, rhs, rtol=1e-9, atol=1e-6)


@given(tagged_relation())
@settings(max_examples=60)
def test_weighted_avg_between_min_and_max(rel):
    rng = np.random.default_rng(1)
    w = rng.random(rel.num_rows) + 1e-9
    avg = compute_aggregate(AggregateSpec("AVG", ColumnRef("v"), "a"), rel, w)
    lo = compute_aggregate(AggregateSpec("MIN", ColumnRef("v"), "m"), rel, w)
    hi = compute_aggregate(AggregateSpec("MAX", ColumnRef("v"), "M"), rel, w)
    assert lo - 1e-9 <= avg <= hi + 1e-9


@given(tagged_relation())
@settings(max_examples=60)
def test_scaling_weights_scales_count(rel):
    w = np.ones(rel.num_rows)
    spec = AggregateSpec("COUNT", None, "c")
    assert compute_aggregate(spec, rel, 3.0 * w) == 3.0 * compute_aggregate(spec, rel, w)


@given(tagged_relation(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60)
def test_sort_is_permutation(rel, seed):
    out = rel.sort_by(["v"])
    assert sorted(out.column("v").tolist()) == sorted(rel.column("v").tolist())
    assert np.all(np.diff(out.column("v")) >= 0)


@given(tagged_relation())
@settings(max_examples=60)
def test_filter_then_concat_complement_is_permutation(rel):
    mask = rel.column("v") > 0
    kept, dropped = rel.filter(mask), rel.filter(~mask)
    assert kept.num_rows + dropped.num_rows == rel.num_rows
    merged = sorted(kept.column("v").tolist() + dropped.column("v").tolist())
    assert merged == sorted(rel.column("v").tolist())
