"""Unit tests for Schema and Field."""

import pytest

from repro.errors import SchemaError
from repro.relational.dtypes import DType
from repro.relational.schema import Field, Schema


@pytest.fixture
def schema():
    return Schema.of(a=DType.INT, b=DType.FLOAT, c=DType.TEXT)


class TestConstruction:
    def test_of_keeps_order(self, schema):
        assert schema.names == ("a", "b", "c")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate column"):
            Schema([Field("x", DType.INT), Field("x", DType.FLOAT)])

    def test_empty_field_name_rejected(self):
        with pytest.raises(SchemaError):
            Field("", DType.INT)

    def test_len_and_iter(self, schema):
        assert len(schema) == 3
        assert [f.name for f in schema] == ["a", "b", "c"]


class TestLookup:
    def test_field(self, schema):
        assert schema.field("b") == Field("b", DType.FLOAT)

    def test_dtype(self, schema):
        assert schema.dtype("c") is DType.TEXT

    def test_position(self, schema):
        assert schema.position("c") == 2

    def test_contains(self, schema):
        assert "a" in schema
        assert "z" not in schema

    def test_missing_column_raises_with_candidates(self, schema):
        with pytest.raises(SchemaError, match="no such column: 'z'"):
            schema.field("z")


class TestDerivedSchemas:
    def test_project(self, schema):
        projected = schema.project(["c", "a"])
        assert projected.names == ("c", "a")

    def test_project_unknown_raises(self, schema):
        with pytest.raises(SchemaError):
            schema.project(["nope"])

    def test_equality_and_hash(self, schema):
        twin = Schema.of(a=DType.INT, b=DType.FLOAT, c=DType.TEXT)
        assert schema == twin
        assert hash(schema) == hash(twin)
        assert schema != Schema.of(a=DType.INT)
