"""Unit tests for the columnar Relation."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational.dtypes import DType
from repro.relational.relation import Relation
from repro.relational.schema import Schema


@pytest.fixture
def rel():
    schema = Schema.of(id=DType.INT, score=DType.FLOAT, tag=DType.TEXT)
    return Relation.from_columns(
        schema,
        {"id": [1, 2, 3, 4], "score": [0.5, 1.5, 2.5, 3.5], "tag": ["a", "b", "a", "c"]},
    )


class TestConstruction:
    def test_from_columns_coerces(self, rel):
        assert rel.num_rows == 4
        assert rel.column("id").dtype == np.int64

    def test_from_rows(self):
        schema = Schema.of(x=DType.INT, y=DType.TEXT)
        rel = Relation.from_rows(schema, [(1, "a"), (2, "b")])
        assert rel.to_pylist() == [{"x": 1, "y": "a"}, {"x": 2, "y": "b"}]

    def test_from_rows_bad_arity(self):
        schema = Schema.of(x=DType.INT, y=DType.TEXT)
        with pytest.raises(SchemaError, match="arity"):
            Relation.from_rows(schema, [(1,)])

    def test_from_dict_infers(self):
        rel = Relation.from_dict({"a": [1, 2], "b": ["x", "y"]})
        assert rel.schema.dtype("a") is DType.INT
        assert rel.schema.dtype("b") is DType.TEXT

    def test_empty(self):
        rel = Relation.empty(Schema.of(a=DType.FLOAT))
        assert rel.num_rows == 0
        assert rel.column("a").dtype == np.float64

    def test_ragged_columns_rejected(self):
        schema = Schema.of(a=DType.INT, b=DType.INT)
        with pytest.raises(SchemaError, match="ragged"):
            Relation.from_columns(schema, {"a": [1], "b": [1, 2]})

    def test_column_set_mismatch_rejected(self):
        schema = Schema.of(a=DType.INT)
        with pytest.raises(SchemaError):
            Relation(schema, {"b": np.array([1])})


class TestAccess:
    def test_rows_iteration(self, rel):
        rows = list(rel.rows())
        assert rows[0] == (1, 0.5, "a")
        assert len(rows) == 4

    def test_unknown_column_raises(self, rel):
        with pytest.raises(SchemaError):
            rel.column("nope")

    def test_to_pylist_native_types(self, rel):
        first = rel.to_pylist()[0]
        assert isinstance(first["id"], int)
        assert isinstance(first["score"], float)
        assert isinstance(first["tag"], str)


class TestTransforms:
    def test_filter(self, rel):
        out = rel.filter(rel.column("score") > 1.0)
        assert out.num_rows == 3
        assert out.column("id").tolist() == [2, 3, 4]

    def test_filter_wrong_length(self, rel):
        with pytest.raises(SchemaError):
            rel.filter(np.array([True]))

    def test_take_with_duplicates(self, rel):
        out = rel.take(np.array([0, 0, 3]))
        assert out.column("id").tolist() == [1, 1, 4]

    def test_project_order(self, rel):
        out = rel.project(["tag", "id"])
        assert out.column_names == ("tag", "id")

    def test_with_column_append(self, rel):
        out = rel.with_column("w", DType.FLOAT, [1, 1, 1, 1])
        assert out.column_names[-1] == "w"
        assert rel.column_names == ("id", "score", "tag")  # original untouched

    def test_with_column_replace(self, rel):
        out = rel.with_column("score", DType.FLOAT, [9, 9, 9, 9])
        assert out.column("score").tolist() == [9.0] * 4
        assert out.column_names == rel.column_names

    def test_with_column_length_mismatch(self, rel):
        with pytest.raises(SchemaError):
            rel.with_column("w", DType.FLOAT, [1.0])

    def test_drop_column(self, rel):
        out = rel.drop_column("score")
        assert out.column_names == ("id", "tag")

    def test_drop_missing_column_raises(self, rel):
        with pytest.raises(SchemaError):
            rel.drop_column("nope")

    def test_concat(self, rel):
        out = rel.concat(rel)
        assert out.num_rows == 8

    def test_concat_schema_mismatch(self, rel):
        other = Relation.from_dict({"id": [1]})
        with pytest.raises(SchemaError):
            rel.concat(other)

    def test_head(self, rel):
        assert rel.head(2).num_rows == 2
        assert rel.head(100).num_rows == 4


class TestSort:
    def test_single_key_ascending(self, rel):
        out = rel.sort_by(["score"], [False])
        assert out.column("id").tolist() == [4, 3, 2, 1]

    def test_multi_key(self):
        rel = Relation.from_dict({"g": ["b", "a", "b", "a"], "v": [2, 1, 1, 2]})
        out = rel.sort_by(["g", "v"])
        assert list(zip(out.column("g").tolist(), out.column("v").tolist())) == [
            ("a", 1),
            ("a", 2),
            ("b", 1),
            ("b", 2),
        ]

    def test_mixed_directions(self):
        rel = Relation.from_dict({"g": ["a", "b", "a", "b"], "v": [1, 2, 3, 4]})
        out = rel.sort_by(["g", "v"], [True, False])
        assert out.column("v").tolist() == [3, 1, 4, 2]

    def test_stability(self):
        rel = Relation.from_dict({"k": [1, 1, 1], "orig": [10, 20, 30]})
        out = rel.sort_by(["k"])
        assert out.column("orig").tolist() == [10, 20, 30]

    def test_empty_relation(self):
        rel = Relation.empty(Schema.of(a=DType.INT))
        assert rel.sort_by(["a"]).num_rows == 0


class TestEquality:
    def test_equals_self(self, rel):
        assert rel.equals(rel)

    def test_float_tolerance(self):
        a = Relation.from_dict({"x": [0.1 + 0.2]})
        b = Relation.from_dict({"x": [0.3]})
        assert a.equals(b)

    def test_different_rows(self, rel):
        assert not rel.equals(rel.head(2))
