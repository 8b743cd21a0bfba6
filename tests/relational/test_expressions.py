"""Unit tests for scalar expressions and predicates."""

import numpy as np
import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.relational.dtypes import DType
from repro.relational.expressions import (
    Arithmetic,
    ColumnRef,
    Literal,
    Negate,
    validate_expression,
)
from repro.relational.predicates import (
    And,
    Between,
    Comparison,
    InList,
    Like,
    Not,
    Or,
    TruePredicate,
)
from repro.relational.relation import Relation


@pytest.fixture
def rel():
    return Relation.from_dict(
        {"x": [1, 2, 3, 4], "y": [10.0, 20.0, 30.0, 40.0], "tag": ["a", "b", "a", "c"]}
    )


class TestScalarExpressions:
    def test_column_ref(self, rel):
        assert ColumnRef("x").evaluate(rel).tolist() == [1, 2, 3, 4]

    def test_literal_broadcast(self, rel):
        out = Literal(7).evaluate(rel)
        assert out.tolist() == [7, 7, 7, 7]

    def test_arithmetic_add(self, rel):
        expr = Arithmetic("+", ColumnRef("x"), Literal(1))
        assert expr.evaluate(rel).tolist() == [2, 3, 4, 5]

    def test_division_is_float(self, rel):
        expr = Arithmetic("/", ColumnRef("x"), Literal(2))
        out = expr.evaluate(rel)
        assert out.dtype == np.float64
        assert out.tolist() == [0.5, 1.0, 1.5, 2.0]

    def test_modulo(self, rel):
        expr = Arithmetic("%", ColumnRef("x"), Literal(2))
        assert expr.evaluate(rel).tolist() == [1, 0, 1, 0]

    def test_negate(self, rel):
        assert Negate(ColumnRef("x")).evaluate(rel).tolist() == [-1, -2, -3, -4]

    def test_arithmetic_on_text_raises(self, rel):
        expr = Arithmetic("+", ColumnRef("tag"), Literal(1))
        with pytest.raises(TypeMismatchError):
            expr.evaluate(rel)

    def test_unknown_operator_rejected(self):
        with pytest.raises(TypeMismatchError):
            Arithmetic("**", Literal(1), Literal(2))

    def test_output_dtype_promotion(self, rel):
        expr = Arithmetic("*", ColumnRef("x"), ColumnRef("y"))
        assert expr.output_dtype(rel.schema) is DType.FLOAT

    def test_referenced_columns(self, rel):
        expr = Arithmetic("+", ColumnRef("x"), ColumnRef("y"))
        assert expr.referenced_columns() == frozenset({"x", "y"})

    def test_validate_unknown_column(self, rel):
        with pytest.raises(SchemaError, match="unknown column"):
            validate_expression(ColumnRef("nope"), rel.schema)


class TestComparisons:
    def test_numeric_ops(self, rel):
        assert Comparison(">", ColumnRef("x"), Literal(2)).evaluate(rel).tolist() == [
            False,
            False,
            True,
            True,
        ]
        assert Comparison("=", ColumnRef("x"), Literal(3)).evaluate(rel).tolist() == [
            False,
            False,
            True,
            False,
        ]

    def test_text_equality(self, rel):
        out = Comparison("=", ColumnRef("tag"), Literal("a")).evaluate(rel)
        assert out.tolist() == [True, False, True, False]

    def test_text_ordering_lexicographic(self, rel):
        out = Comparison("<", ColumnRef("tag"), Literal("b")).evaluate(rel)
        assert out.tolist() == [True, False, True, False]

    def test_text_vs_number_rejected(self, rel):
        with pytest.raises(TypeMismatchError):
            Comparison("=", ColumnRef("tag"), Literal(1)).evaluate(rel)

    def test_diamond_alias(self, rel):
        out = Comparison("<>", ColumnRef("x"), Literal(1)).evaluate(rel)
        assert out.tolist() == [False, True, True, True]


class TestInBetween:
    def test_in_numeric(self, rel):
        out = InList(ColumnRef("x"), [1, 4]).evaluate(rel)
        assert out.tolist() == [True, False, False, True]

    def test_in_text(self, rel):
        out = InList(ColumnRef("tag"), ["a", "c"]).evaluate(rel)
        assert out.tolist() == [True, False, True, True]

    def test_not_in(self, rel):
        out = InList(ColumnRef("x"), [1], negated=True).evaluate(rel)
        assert out.tolist() == [False, True, True, True]

    def test_between_inclusive(self, rel):
        out = Between(ColumnRef("x"), Literal(2), Literal(3)).evaluate(rel)
        assert out.tolist() == [False, True, True, False]

    def test_not_between(self, rel):
        out = Between(ColumnRef("x"), Literal(2), Literal(3), negated=True).evaluate(rel)
        assert out.tolist() == [True, False, False, True]


class TestBooleanConnectives:
    def test_and_or_not(self, rel):
        gt1 = Comparison(">", ColumnRef("x"), Literal(1))
        lt4 = Comparison("<", ColumnRef("x"), Literal(4))
        assert And(gt1, lt4).evaluate(rel).tolist() == [False, True, True, False]
        assert Or(Not(gt1), Not(lt4)).evaluate(rel).tolist() == [True, False, False, True]

    def test_true_predicate(self, rel):
        assert TruePredicate().evaluate(rel).all()


class TestSqlRendering:
    @pytest.mark.parametrize(
        "value, quoted",
        [
            ("plain", "'plain'"),
            ("it's", "'it''s'"),
            ("'", "''''"),
            ("''", "''''''"),
            ("a'b'c", "'a''b''c'"),
            ("", "''"),
        ],
        ids=["plain", "inner", "lone", "pair", "two_inner", "empty"],
    )
    def test_text_constants_double_their_quotes(self, value, quoted):
        assert Literal(value).to_sql() == quoted
        assert Comparison("=", ColumnRef("tag"), Literal(value)).to_sql() == (
            f"(tag = {quoted})"
        )
        assert InList(ColumnRef("tag"), [value, "x"]).to_sql() == f"(tag IN ({quoted}, 'x'))"
        assert Like(ColumnRef("tag"), value).to_sql() == f"(tag LIKE {quoted})"

    def test_nested(self):
        expr = And(
            Comparison(">", ColumnRef("x"), Literal(1)),
            InList(ColumnRef("tag"), ["a"]),
        )
        text = expr.to_sql()
        assert "x > 1" in text
        assert "IN" in text
