"""Unit tests for group-by and relational operators."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational.expressions import ColumnRef, Literal
from repro.relational.groupby import group_rows
from repro.relational.ops import distinct, project_expressions, union_all
from repro.relational.relation import Relation


@pytest.fixture
def rel():
    return Relation.from_dict(
        {
            "g": ["a", "b", "a", "b", "c"],
            "h": [1, 1, 2, 1, 1],
            "v": [10.0, 20.0, 30.0, 40.0, 50.0],
        }
    )


class TestGroupRows:
    def test_single_key(self, rel):
        groups = dict(
            (key, idx.tolist()) for key, idx in group_rows(rel, ["g"])
        )
        assert groups[("a",)] == [0, 2]
        assert groups[("b",)] == [1, 3]
        assert groups[("c",)] == [4]

    def test_multi_key(self, rel):
        groups = {key: idx.tolist() for key, idx in group_rows(rel, ["g", "h"])}
        assert groups[("a", 1)] == [0]
        assert groups[("a", 2)] == [2]
        assert groups[("b", 1)] == [1, 3]

    def test_no_keys_single_group(self, rel):
        groups = group_rows(rel, [])
        assert len(groups) == 1
        key, idx = groups[0]
        assert key == ()
        assert idx.tolist() == [0, 1, 2, 3, 4]

    def test_empty_relation(self):
        empty = Relation.from_dict({"g": np.array([], dtype=object)})
        assert group_rows(empty, ["g"]) == []

    def test_keys_are_python_native(self, rel):
        key, _ = group_rows(rel, ["h"])[0]
        assert isinstance(key[0], int)

    def test_partition_is_complete_and_disjoint(self, rel):
        groups = group_rows(rel, ["g"])
        all_indices = np.concatenate([idx for _, idx in groups])
        assert sorted(all_indices.tolist()) == [0, 1, 2, 3, 4]


class TestOperators:
    def test_project_expressions(self, rel):
        out = project_expressions(rel, [ColumnRef("v"), Literal(1)], ["val", "one"])
        assert out.column_names == ("val", "one")
        assert out.column("one").tolist() == [1] * 5

    def test_union_all(self, rel):
        out = union_all([rel, rel, rel])
        assert out.num_rows == 15

    def test_union_empty_list_raises(self):
        with pytest.raises(SchemaError):
            union_all([])

    def test_distinct(self, rel):
        out = distinct(rel, ["g"])
        assert sorted(out.column("g").tolist()) == ["a", "b", "c"]

    def test_distinct_all_columns(self):
        rel = Relation.from_dict({"a": [1, 1, 2], "b": [1, 1, 3]})
        assert distinct(rel).num_rows == 2
