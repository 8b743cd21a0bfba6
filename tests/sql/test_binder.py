"""Unit tests for bind-time name resolution (barewords vs columns)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SqlCompileError
from repro.relational.dtypes import DType
from repro.relational.expressions import ColumnRef, Literal
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sql.ast_nodes import Identifier
from repro.sql.binder import bind_expression, require_column, resolve_column_name
from repro.sql.parser import parse_statement


@pytest.fixture
def schema():
    return Schema.of(email=DType.TEXT, country=DType.TEXT, age=DType.INT)


class TestBindIdentifier:
    def test_column_resolves(self, schema):
        out = bind_expression(Identifier("email"), schema)
        assert out == ColumnRef("email")

    def test_case_insensitive_fallback(self, schema):
        out = bind_expression(Identifier("EMAIL"), schema)
        assert out == ColumnRef("email")

    def test_bareword_becomes_literal(self, schema):
        out = bind_expression(Identifier("Yahoo"), schema)
        assert out == Literal("Yahoo")

    def test_bareword_disallowed_raises(self, schema):
        with pytest.raises(SqlCompileError, match="unknown column"):
            bind_expression(Identifier("Yahoo"), schema, allow_barewords=False)


class TestBindTrees:
    def test_paper_where_clause(self, schema):
        where = parse_statement("SELECT * FROM P WHERE email = Yahoo").where
        bound = bind_expression(where, schema)
        rel = Relation.from_columns(
            schema,
            {"email": ["Yahoo", "AOL"], "country": ["UK", "FR"], "age": [30, 40]},
        )
        assert bound.evaluate(rel).tolist() == [True, False]

    def test_nested_logic(self, schema):
        where = parse_statement(
            "SELECT * FROM P WHERE (email = Yahoo OR email = 'AOL') AND age > 35"
        ).where
        bound = bind_expression(where, schema)
        rel = Relation.from_columns(
            schema,
            {"email": ["Yahoo", "AOL"], "country": ["UK", "FR"], "age": [30, 40]},
        )
        assert bound.evaluate(rel).tolist() == [False, True]

    def test_in_and_between(self, schema):
        where = parse_statement(
            "SELECT * FROM P WHERE country IN ('UK', 'FR') AND age BETWEEN 25 AND 35"
        ).where
        bound = bind_expression(where, schema)
        rel = Relation.from_columns(
            schema,
            {"email": ["a", "b", "c"], "country": ["UK", "FR", "DE"], "age": [30, 40, 30]},
        )
        assert bound.evaluate(rel).tolist() == [True, False, False]

    def test_binding_is_idempotent(self, schema):
        where = parse_statement("SELECT * FROM P WHERE email = Yahoo").where
        once = bind_expression(where, schema)
        twice = bind_expression(once, schema)
        assert once.to_sql() == twice.to_sql()

    @settings(max_examples=200, deadline=None)
    @given(
        quoted=st.tuples(st.text(max_size=6), st.text(max_size=6)).map("'".join),
        other=st.text(max_size=6),
        shape=st.sampled_from(
            ["email = {a}", "{a} < email", "email IN ({a}, {b})", "email NOT LIKE {a}"]
        ),
    )
    @example(quoted="it's", other="x", shape="email IN ({a}, {b})")
    def test_text_constants_render_back_to_the_same_sql(self, quoted, other, shape):
        """A rendered filter parses back to itself: quotes are doubled."""
        schema = Schema.of(email=DType.TEXT)

        def quote(value):
            return "'" + value.replace("'", "''") + "'"

        def bound_sql(where):
            parsed = parse_statement(f"SELECT * FROM P WHERE {where}").where
            return bind_expression(parsed, schema).to_sql()

        rendered = bound_sql(shape.format(a=quote(quoted), b=quote(other)))
        assert bound_sql(rendered) == rendered

    def test_arithmetic_binding(self, schema):
        expr = parse_statement("SELECT age * 2 + 1 FROM P").items[0].expr
        bound = bind_expression(expr, schema)
        rel = Relation.from_columns(
            schema, {"email": ["x"], "country": ["UK"], "age": [10]}
        )
        assert bound.evaluate(rel).tolist() == [21]


class TestHelpers:
    def test_resolve_exact(self, schema):
        assert resolve_column_name("age", schema) == "age"

    def test_resolve_case_insensitive(self, schema):
        assert resolve_column_name("Age", schema) == "age"

    def test_resolve_missing_is_none(self, schema):
        assert resolve_column_name("zzz", schema) is None

    def test_require_column_raises(self, schema):
        with pytest.raises(SqlCompileError):
            require_column("zzz", schema)

    def test_unbound_identifier_refuses_evaluation(self, schema):
        rel = Relation.from_columns(
            schema, {"email": ["x"], "country": ["UK"], "age": [1]}
        )
        with pytest.raises(SqlCompileError, match="unbound identifier"):
            Identifier("Yahoo").evaluate(rel)
