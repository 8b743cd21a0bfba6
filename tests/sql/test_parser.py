"""Unit tests for the SQL parser, including every statement from the paper."""

import pytest

from repro.core.visibility import Visibility
from repro.errors import SqlSyntaxError
from repro.relational.dtypes import DType
from repro.relational.expressions import Arithmetic, Literal, Negate
from repro.relational.predicates import And, Between, Comparison, InList, Like, Not, Or
from repro.sql.ast_nodes import (
    CreateMetadata,
    CreatePopulation,
    CreateSample,
    CreateTable,
    Drop,
    Identifier,
    Insert,
    SelectQuery,
    UpdateWeights,
)
from repro.sql.parser import parse_script, parse_statement


class TestSelect:
    def test_minimal(self):
        q = parse_statement("SELECT * FROM t")
        assert isinstance(q, SelectQuery)
        assert q.table == "t"
        assert q.items[0].is_star
        assert q.visibility is None

    def test_visibility_closed(self):
        q = parse_statement("SELECT CLOSED * FROM t")
        assert q.visibility is Visibility.CLOSED

    def test_visibility_semi_open_hyphenated(self):
        q = parse_statement("SELECT SEMI-OPEN country, COUNT(*) FROM P GROUP BY country")
        assert q.visibility is Visibility.SEMI_OPEN
        assert q.group_by == ("country",)

    def test_visibility_semi_open_underscore(self):
        q = parse_statement("SELECT SEMI_OPEN * FROM P")
        assert q.visibility is Visibility.SEMI_OPEN

    def test_visibility_open(self):
        q = parse_statement("SELECT OPEN country, email, COUNT(*) FROM P GROUP BY country, email")
        assert q.visibility is Visibility.OPEN
        assert q.group_by == ("country", "email")

    def test_aggregates(self):
        q = parse_statement("SELECT COUNT(*), AVG(x), SUM(x + 1) FROM t")
        assert q.items[0].func == "COUNT" and q.items[0].expr is None
        assert q.items[1].func == "AVG"
        assert isinstance(q.items[2].expr, Arithmetic)

    def test_aliases(self):
        q = parse_statement("SELECT COUNT(*) AS n, x total FROM t")
        assert q.items[0].alias == "n"
        assert q.items[1].alias == "total"

    def test_order_by_and_limit(self):
        q = parse_statement("SELECT * FROM t ORDER BY a DESC, b LIMIT 5")
        assert q.order_by[0].column == "a" and not q.order_by[0].ascending
        assert q.order_by[1].column == "b" and q.order_by[1].ascending
        assert q.limit == 5

    @pytest.mark.parametrize("literal", ["1.5", "1e3", ".5"])
    def test_non_integer_limit_is_a_typed_syntax_error(self, literal):
        with pytest.raises(SqlSyntaxError, match="LIMIT needs") as excinfo:
            parse_statement(f"SELECT CLOSED carrier FROM Flights\nLIMIT {literal}")
        assert (excinfo.value.line, excinfo.value.column) == (2, 7)

    def test_distinct(self):
        q = parse_statement("SELECT DISTINCT tag FROM t")
        assert q.distinct

    def test_missing_from_raises(self):
        with pytest.raises(SqlSyntaxError, match="FROM"):
            parse_statement("SELECT *")


class TestExpressions:
    def where(self, text):
        return parse_statement(f"SELECT * FROM t WHERE {text}").where

    def test_comparison(self):
        expr = self.where("E > 200")
        assert isinstance(expr, Comparison)
        assert expr.op == ">"

    def test_precedence_and_or(self):
        expr = self.where("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, Or)
        assert isinstance(expr.right, And)

    def test_not(self):
        expr = self.where("NOT a = 1")
        assert isinstance(expr, Not)

    def test_in_list_strings(self):
        expr = self.where("C IN ('WN', 'AA')")
        assert isinstance(expr, InList)
        assert expr.values == ("WN", "AA")

    def test_in_list_barewords(self):
        expr = self.where("C IN (WN, AA)")
        assert expr.values == ("WN", "AA")

    def test_not_in(self):
        expr = self.where("C NOT IN (1, 2)")
        assert isinstance(expr, InList)
        assert expr.negated

    def test_between(self):
        expr = self.where("x BETWEEN 1 AND 10")
        assert isinstance(expr, Between)

    def test_not_between(self):
        expr = self.where("x NOT BETWEEN 1 AND 10")
        assert expr.negated

    def test_between_binds_tighter_than_and(self):
        expr = self.where("x BETWEEN 1 AND 10 AND y = 2")
        assert isinstance(expr, And)
        assert isinstance(expr.left, Between)

    def test_arithmetic_precedence(self):
        expr = parse_statement("SELECT a + b * 2 FROM t").items[0].expr
        assert isinstance(expr, Arithmetic) and expr.op == "+"
        assert isinstance(expr.right, Arithmetic) and expr.right.op == "*"

    def test_parens_override(self):
        expr = parse_statement("SELECT (a + b) * 2 FROM t").items[0].expr
        assert expr.op == "*"

    def test_unary_minus(self):
        expr = parse_statement("SELECT -x FROM t").items[0].expr
        assert isinstance(expr, Negate)

    def test_scientific_literal(self):
        expr = self.where("lam = 1e-7")
        assert isinstance(expr.right, Literal)
        assert expr.right.value == pytest.approx(1e-7)

    def test_bareword_comparison(self):
        expr = self.where("email = Yahoo")
        assert isinstance(expr.right, Identifier)
        assert expr.right.name == "Yahoo"


class TestCreateTable:
    def test_with_columns(self):
        stmt = parse_statement("CREATE TABLE t (a INT, b FLOAT, c TEXT)")
        assert isinstance(stmt, CreateTable)
        assert [c.dtype for c in stmt.columns] == [DType.INT, DType.FLOAT, DType.TEXT]
        assert not stmt.temporary

    def test_temporary(self):
        stmt = parse_statement("CREATE TEMPORARY TABLE Eurostat")
        assert stmt.temporary
        assert stmt.columns == ()

    def test_bad_type(self):
        with pytest.raises(Exception, match="unknown column type"):
            parse_statement("CREATE TABLE t (a BLOB)")


class TestInsert:
    def test_multi_row(self):
        stmt = parse_statement("INSERT INTO t VALUES (1, 'a', 2.5), (-2, 'b', 0.5)")
        assert isinstance(stmt, Insert)
        assert stmt.rows == ((1, "a", 2.5), (-2, "b", 0.5))

    def test_booleans(self):
        stmt = parse_statement("INSERT INTO t VALUES (TRUE, FALSE)")
        assert stmt.rows == ((True, False),)

    def test_bad_literal(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("INSERT INTO t VALUES (x)")


class TestCreatePopulation:
    def test_global_bare(self):
        stmt = parse_statement("CREATE GLOBAL POPULATION EuropeMigrants")
        assert isinstance(stmt, CreatePopulation)
        assert stmt.is_global
        assert stmt.source is None

    def test_with_columns(self):
        stmt = parse_statement("CREATE GLOBAL POPULATION P (a INT, b TEXT)")
        assert len(stmt.columns) == 2

    def test_derived_population(self):
        stmt = parse_statement(
            "CREATE POPULATION UkMigrants AS (SELECT * FROM EuropeMigrants WHERE country = 'UK')"
        )
        assert not stmt.is_global
        assert stmt.source.table == "EuropeMigrants"


class TestCreateSample:
    def test_paper_example(self):
        stmt = parse_statement(
            "CREATE SAMPLE YahooMigrants AS "
            "(SELECT * FROM EuropeMigrants WHERE email = Yahoo)"
        )
        assert isinstance(stmt, CreateSample)
        assert stmt.source.table == "EuropeMigrants"
        assert stmt.mechanism is None

    def test_uniform_mechanism(self):
        stmt = parse_statement(
            "CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 10)"
        )
        assert stmt.mechanism.kind == "UNIFORM"
        assert stmt.mechanism.percent == 10.0

    def test_stratified_mechanism(self):
        stmt = parse_statement(
            "CREATE SAMPLE S AS "
            "(SELECT * FROM P WHERE x > 0 USING MECHANISM STRATIFIED ON A1 PERCENT 20)"
        )
        assert stmt.mechanism.kind == "STRATIFIED"
        assert stmt.mechanism.stratify_on == "A1"
        assert stmt.mechanism.percent == 20.0
        assert stmt.source.where is not None


class TestCreateMetadata:
    def test_projection_form(self):
        stmt = parse_statement(
            "CREATE METADATA EuropeMigrants_M1 AS "
            "(SELECT country, reported_count FROM Eurostat)"
        )
        assert isinstance(stmt, CreateMetadata)
        assert stmt.name == "EuropeMigrants_M1"
        assert stmt.for_population is None

    def test_group_by_form(self):
        stmt = parse_statement(
            "CREATE METADATA M FOR Pop AS "
            "(SELECT a, b, COUNT(*) FROM aux GROUP BY a, b)"
        )
        assert stmt.for_population == "Pop"
        assert stmt.query.group_by == ("a", "b")


class TestUpdateAndDrop:
    def test_update_weights(self):
        stmt = parse_statement("UPDATE SAMPLE S SET WEIGHT = weight * 2 WHERE x > 0")
        assert isinstance(stmt, UpdateWeights)
        assert stmt.sample == "S"
        assert stmt.where is not None

    def test_drop(self):
        stmt = parse_statement("DROP SAMPLE S")
        assert stmt == Drop(kind="SAMPLE", name="S")

    def test_drop_bad_kind(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("DROP INDEX i")


class TestScripts:
    def test_motivating_example_script(self):
        script = """
        CREATE TEMPORARY TABLE Eurostat (country TEXT, email TEXT, reported_count INT);
        CREATE GLOBAL POPULATION EuropeMigrants (country TEXT, email TEXT);
        CREATE METADATA EuropeMigrants_M1 AS
          (SELECT country, reported_count FROM Eurostat);
        CREATE METADATA EuropeMigrants_M2 AS
          (SELECT email, reported_count FROM Eurostat);
        CREATE SAMPLE YahooMigrants AS
          (SELECT * FROM EuropeMigrants WHERE email = Yahoo);
        SELECT SEMI-OPEN country, email, COUNT(*)
          FROM EuropeMigrants GROUP BY country, email;
        SELECT OPEN country, email, COUNT(*)
          FROM EuropeMigrants GROUP BY country, email;
        """
        statements = parse_script(script)
        assert len(statements) == 7
        assert statements[-2].visibility is Visibility.SEMI_OPEN
        assert statements[-1].visibility is Visibility.OPEN

    def test_paper_table2_queries_parse(self):
        queries = [
            "SELECT AVG(D) FROM F WHERE E > 200",
            "SELECT AVG(I) FROM F WHERE E < 200",
            "SELECT AVG(E) FROM F WHERE D > 1000",
            "SELECT AVG(O) FROM F WHERE D < 1000",
            "SELECT C, AVG(D) FROM F WHERE E > 200 AND C IN ('WN', 'AA') GROUP BY C",
            "SELECT C, AVG(I) FROM F WHERE E < 200 AND C IN ('WN', 'AA') GROUP BY C",
            "SELECT C, AVG(E) FROM F WHERE D > 1000 AND C IN ('WN', 'AA') GROUP BY C",
            "SELECT C, AVG(O) FROM F WHERE D < 1000 AND C IN ('US', 'F9') GROUP BY C",
        ]
        for text in queries:
            query = parse_statement(text)
            assert isinstance(query, SelectQuery)

    def test_like_parses(self):
        query = parse_statement("SELECT * FROM t WHERE name LIKE 'A%'")
        assert isinstance(query.where, Like)
        assert query.where.pattern == "A%"
        assert not query.where.negated

    def test_not_like_parses(self):
        query = parse_statement("SELECT * FROM t WHERE name NOT LIKE '_b%' AND x = 1")
        like = query.where.left
        assert isinstance(like, Like)
        assert like.pattern == "_b%"
        assert like.negated

    def test_like_requires_string_pattern(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT * FROM t WHERE name LIKE 42")

    def test_empty_script(self):
        assert parse_script("  -- nothing here\n") == []

    def test_trailing_garbage_raises(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT * FROM t garbage extra ,")
