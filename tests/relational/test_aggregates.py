"""Unit tests for the row-wise aggregate reference the kernels are checked against."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.relational.aggregates import AggregateSpec
from repro.relational.dtypes import DType
from repro.relational.expressions import ColumnRef
from repro.relational.relation import Relation

# Loaded by path: other test directories have an ``oracles`` module too,
# and test directories without packages share one module namespace.
_spec = importlib.util.spec_from_file_location(
    "relational_oracles", Path(__file__).with_name("oracles.py")
)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)
compute_aggregate = oracles.compute_aggregate


@pytest.fixture
def rel():
    return Relation.from_dict({"v": [1.0, 2.0, 3.0, 4.0], "tag": ["a", "b", "a", "b"]})


def spec(func, column=None):
    expr = None if column is None else ColumnRef(column)
    return AggregateSpec(func, expr, alias="out")


class TestUnweighted:
    def test_count_star(self, rel):
        assert compute_aggregate(spec("COUNT"), rel) == 4

    def test_count_column_equals_count_star(self, rel):
        assert compute_aggregate(spec("COUNT", "v"), rel) == 4

    def test_sum(self, rel):
        assert compute_aggregate(spec("SUM", "v"), rel) == 10.0

    def test_avg(self, rel):
        assert compute_aggregate(spec("AVG", "v"), rel) == 2.5

    def test_min_max(self, rel):
        assert compute_aggregate(spec("MIN", "v"), rel) == 1.0
        assert compute_aggregate(spec("MAX", "v"), rel) == 4.0

    def test_count_empty_is_zero(self):
        empty = Relation.from_dict({"v": np.array([], dtype=float)})
        assert compute_aggregate(spec("COUNT"), empty) == 0

    def test_sum_empty_raises(self):
        empty = Relation.from_dict({"v": np.array([], dtype=float)})
        with pytest.raises(SchemaError, match="zero rows"):
            compute_aggregate(spec("SUM", "v"), empty)


class TestWeighted:
    """The paper's rewrite: COUNT(*) -> SUM(w), SUM(a) -> SUM(w*a), etc."""

    def test_weighted_count_is_sum_of_weights(self, rel):
        w = np.array([2.0, 3.0, 0.5, 0.5])
        assert compute_aggregate(spec("COUNT"), rel, w) == pytest.approx(6.0)

    def test_weighted_sum(self, rel):
        w = np.array([1.0, 0.0, 2.0, 0.0])
        assert compute_aggregate(spec("SUM", "v"), rel, w) == pytest.approx(7.0)

    def test_weighted_avg(self, rel):
        w = np.array([1.0, 0.0, 0.0, 3.0])
        # (1*1 + 3*4) / 4 = 13/4
        assert compute_aggregate(spec("AVG", "v"), rel, w) == pytest.approx(3.25)

    def test_weighted_min_ignores_zero_weight(self, rel):
        w = np.array([0.0, 1.0, 1.0, 1.0])
        assert compute_aggregate(spec("MIN", "v"), rel, w) == 2.0

    def test_weighted_max_ignores_zero_weight(self, rel):
        w = np.array([1.0, 1.0, 1.0, 0.0])
        assert compute_aggregate(spec("MAX", "v"), rel, w) == 3.0

    def test_all_zero_weight_minmax_raises(self, rel):
        with pytest.raises(SchemaError, match="zero total weight"):
            compute_aggregate(spec("MIN", "v"), rel, np.zeros(4))

    def test_zero_total_weight_avg_raises(self, rel):
        with pytest.raises(SchemaError, match="zero total weight"):
            compute_aggregate(spec("AVG", "v"), rel, np.zeros(4))

    def test_uniform_weights_match_unweighted(self, rel):
        w = np.ones(4)
        for func in ["SUM", "AVG", "MIN", "MAX"]:
            assert compute_aggregate(spec(func, "v"), rel, w) == pytest.approx(
                compute_aggregate(spec(func, "v"), rel)
            )

    def test_weight_length_mismatch(self, rel):
        with pytest.raises(SchemaError):
            compute_aggregate(spec("COUNT"), rel, np.ones(3))


class TestSpecValidation:
    def test_unknown_function(self):
        with pytest.raises(TypeMismatchError):
            AggregateSpec("MEDIAN", ColumnRef("v"), "out")

    def test_star_only_for_count(self):
        with pytest.raises(TypeMismatchError):
            AggregateSpec("SUM", None, "out")

    def test_aggregate_on_text_raises(self, rel):
        with pytest.raises(TypeMismatchError):
            compute_aggregate(spec("SUM", "tag"), rel)

    def test_output_dtype(self, rel):
        assert spec("COUNT").output_dtype(rel.schema, weighted=False) is DType.INT
        assert spec("COUNT").output_dtype(rel.schema, weighted=True) is DType.FLOAT
        assert spec("AVG", "v").output_dtype(rel.schema, weighted=False) is DType.FLOAT

    def test_to_sql(self):
        assert spec("COUNT").to_sql() == "COUNT(*)"
        assert spec("AVG", "v").to_sql() == "AVG(v)"
