"""Unit tests for the SELECT executor over weighted relations."""

import numpy as np
import pytest

from repro.engine.executor import execute_select
from repro.errors import SqlCompileError, SqlSyntaxError
from repro.relational.relation import Relation
from repro.sql.parser import parse_statement


@pytest.fixture
def rel():
    return Relation.from_dict(
        {
            "carrier": ["AA", "AA", "WN", "WN", "US"],
            "distance": [1000, 2000, 300, 500, 800],
            "elapsed": [150.0, 260.0, 60.0, 90.0, 120.0],
        }
    )


def q(text):
    return parse_statement(text)


class TestProjection:
    def test_star(self, rel):
        out = execute_select(q("SELECT * FROM F"), rel)
        assert out.equals(rel)

    def test_column_projection_with_alias(self, rel):
        out = execute_select(q("SELECT carrier AS c, distance FROM F"), rel)
        assert out.column_names == ("c", "distance")

    def test_expression_projection(self, rel):
        out = execute_select(q("SELECT distance / 2 AS half FROM F LIMIT 1"), rel)
        assert out.column("half")[0] == 500.0

    def test_where(self, rel):
        out = execute_select(q("SELECT * FROM F WHERE distance > 600"), rel)
        assert out.num_rows == 3

    def test_where_bareword(self, rel):
        out = execute_select(q("SELECT * FROM F WHERE carrier = AA"), rel)
        assert out.num_rows == 2

    def test_order_and_limit(self, rel):
        out = execute_select(q("SELECT * FROM F ORDER BY distance DESC LIMIT 2"), rel)
        assert out.column("distance").tolist() == [2000, 1000]

    def test_where_then_limit_keeps_the_first_matches(self, rel):
        out = execute_select(q("SELECT * FROM F WHERE distance > 600 LIMIT 2"), rel)
        assert out.column("distance").tolist() == [1000, 2000]

    def test_limit_zero_keeps_the_columns(self, rel):
        out = execute_select(q("SELECT carrier, distance FROM F LIMIT 0"), rel)
        assert out.num_rows == 0
        assert out.column_names == ("carrier", "distance")

    def test_limit_beyond_the_rows_returns_every_row(self, rel):
        out = execute_select(q("SELECT * FROM F LIMIT 50"), rel)
        assert out.equals(rel)

    def test_negative_limit_is_a_syntax_error(self):
        with pytest.raises(SqlSyntaxError, match="expected NUMBER"):
            q("SELECT * FROM F LIMIT -1")

    def test_distinct(self, rel):
        out = execute_select(q("SELECT DISTINCT carrier FROM F"), rel)
        assert sorted(out.column("carrier").tolist()) == ["AA", "US", "WN"]

    def test_zero_weight_rows_invisible(self, rel):
        weights = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        out = execute_select(q("SELECT * FROM F"), rel, weights=weights)
        assert out.num_rows == 3
        assert "US" not in out.column("carrier").tolist()


class TestAggregates:
    def test_global_count(self, rel):
        out = execute_select(q("SELECT COUNT(*) FROM F"), rel)
        assert out.to_pylist() == [{"COUNT(*)": 5}]

    def test_weighted_count(self, rel):
        weights = np.full(5, 10.0)
        out = execute_select(q("SELECT COUNT(*) AS n FROM F"), rel, weights=weights)
        assert out.column("n")[0] == pytest.approx(50.0)

    def test_group_by_avg(self, rel):
        out = execute_select(
            q("SELECT carrier, AVG(distance) AS d FROM F GROUP BY carrier"), rel
        )
        by_carrier = {row["carrier"]: row["d"] for row in out.to_pylist()}
        assert by_carrier["AA"] == 1500.0
        assert by_carrier["WN"] == 400.0

    def test_weighted_group_avg(self, rel):
        weights = np.array([3.0, 1.0, 1.0, 1.0, 1.0])
        out = execute_select(
            q("SELECT carrier, AVG(distance) AS d FROM F GROUP BY carrier"),
            rel,
            weights=weights,
        )
        by_carrier = {row["carrier"]: row["d"] for row in out.to_pylist()}
        assert by_carrier["AA"] == pytest.approx((3 * 1000 + 2000) / 4)

    def test_zero_weight_group_dropped(self, rel):
        weights = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
        out = execute_select(
            q("SELECT carrier, COUNT(*) AS n FROM F GROUP BY carrier"),
            rel,
            weights=weights,
        )
        assert "WN" not in [row["carrier"] for row in out.to_pylist()]

    def test_paper_query_5_shape(self, rel):
        out = execute_select(
            q(
                "SELECT carrier, AVG(distance) FROM F "
                "WHERE elapsed > 100 AND carrier IN ('AA', 'WN') GROUP BY carrier"
            ),
            rel,
        )
        assert [row["carrier"] for row in out.to_pylist()] == ["AA"]

    def test_select_column_not_in_group_by_rejected(self, rel):
        with pytest.raises(SqlCompileError, match="not in GROUP BY"):
            execute_select(
                q("SELECT distance, COUNT(*) FROM F GROUP BY carrier"), rel
            )

    def test_star_with_aggregate_rejected(self, rel):
        with pytest.raises(SqlCompileError, match="cannot be combined"):
            execute_select(q("SELECT *, COUNT(*) FROM F GROUP BY carrier"), rel)

    def test_non_boolean_where_rejected(self, rel):
        with pytest.raises(SqlCompileError, match="must be boolean"):
            execute_select(q("SELECT * FROM F WHERE distance"), rel)

    def test_order_by_aggregate_alias(self, rel):
        out = execute_select(
            q("SELECT carrier, COUNT(*) AS n FROM F GROUP BY carrier ORDER BY n DESC"),
            rel,
        )
        assert out.column("n").tolist() == [2, 2, 1]

    def test_multiple_aggregates(self, rel):
        out = execute_select(
            q("SELECT MIN(distance) AS lo, MAX(distance) AS hi, SUM(elapsed) AS s FROM F"),
            rel,
        )
        row = out.to_pylist()[0]
        assert (row["lo"], row["hi"]) == (300, 2000)
        assert row["s"] == pytest.approx(680.0)
