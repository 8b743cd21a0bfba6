"""The exact scan kernels against the bodies they replaced.

``oracles.py`` (beside this file) holds ``grouped_aggregate`` as it was:
every aggregate gathers group codes and bins them, ungrouped ones into a
single all-zero code, and every MIN/MAX spec sorts int64 codes on its own.
The production kernel skips the codes when there is no GROUP BY and
shares one narrow-dtype stable order between MIN/MAX specs.  For every
combination of grouping, weights, selection, aggregate and column type the
two must agree: numeric columns ``tobytes()``-equal, TEXT columns equal,
the same warnings, or the same error type and message.
"""

from __future__ import annotations

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational.aggregates import AggregateSpec
from repro.relational.dtypes import DType
from repro.relational.expressions import Arithmetic, ColumnRef
from repro.relational.groupby import group_rows, stable_group_order
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

NAN = float("nan")
SCHEMA = Schema.of(k=DType.TEXT, g=DType.INT, i=DType.INT, f=DType.FLOAT, b=DType.FLOAT)

#: Column values: int64 sums that wrap past 2**63, floats with NaN, signed
#: zeros, values whose sums overflow, and a divisor column with zeros.
VALUES = {
    "k": ["a", "b", "c"],
    "g": [0, 1, 2, 40],
    "i": [0, 1, -3, 7, 2**62, 2**63 - 1, -(2**63)],
    "f": [0.0, -0.0, 1.5, -2.25, 0.1, NAN, 1e308, -1e308, 5e-324],
    "b": [0.0, 2.0, -0.5, 3.0],
}

GROUPINGS = [(), ("k",), ("g",), ("f",), ("k", "g")]

#: ``AVG(f / b) ... WHERE b != 0``: the compound argument must only ever
#: see rows the WHERE clause kept.
GUARDED = Arithmetic("/", ColumnRef("f"), ColumnRef("b"))

ARGUMENTS = {
    "*": None,
    "i": ColumnRef("i"),
    "f": ColumnRef("f"),
    "k": ColumnRef("k"),  # TEXT: every function but COUNT raises
    "i+g": Arithmetic("+", ColumnRef("i"), ColumnRef("g")),
}


def relation_of(rows: list[tuple]) -> Relation:
    return Relation.from_columns(
        SCHEMA, {name: [row[j] for row in rows] for j, name in enumerate(SCHEMA.names)}
    )


#: Weight pools: "mixed" includes negative mass (the AVG total-weight
#: error), "some_zero" rows that are reweighted away.
WEIGHT_POOLS = {"mixed": [0.5, 1.0, 2.5, 1e-3, 0.0, -1.0], "some_zero": [0.0, 0.0, 1.0, 3.25]}
WEIGHT_MODES = ["none", *WEIGHT_POOLS, "all_zero"]
SELECTION_MODES = ["none", "empty", "all", "random"]


def weights_of(mode: str, n: int, drawn: dict) -> np.ndarray | None:
    if mode == "none":
        return None
    if mode == "all_zero":
        return np.zeros(n)
    return np.array(drawn[mode], dtype=float)


def selection_of(mode: str, n: int, drawn: list[bool]) -> np.ndarray | None:
    if mode == "none":
        return None
    if mode == "empty":
        return np.zeros(n, dtype=bool)
    if mode == "all":
        return np.ones(n, dtype=bool)
    return np.array(drawn, dtype=bool)


def plan_of(relation, group_keys, weighted, calls):
    specs = []
    fields = [Field(key, relation.schema.dtype(key)) for key in group_keys]
    for index, (func, argument) in enumerate(calls):
        expr = GUARDED if argument == "f/b" else ARGUMENTS[argument]
        if func != "COUNT" and expr is None:
            func = "COUNT"
        spec = AggregateSpec(func, expr, f"a{index}")
        try:
            dtype = spec.output_dtype(relation.schema, weighted)
        except Exception:
            dtype = DType.TEXT  # non-numeric argument: the kernel raises first
        specs.append(spec)
        fields.append(Field(spec.alias, dtype))
    return specs, Schema(fields)


def outcome(kernel, *args):
    """``(result or (error type, message), warning messages)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = kernel(*args)
        except Exception as exc:  # compared, not swallowed
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def assert_same(expected, actual):
    (want, want_warnings), (got, got_warnings) = expected, actual
    assert got_warnings == want_warnings
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert got.schema == want.schema
    for name in want.column_names:
        mine, theirs = got.column(name), want.column(name)
        assert mine.dtype == theirs.dtype, name
        if theirs.dtype == object:
            assert list(mine) == list(theirs), name
        else:
            assert mine.tobytes() == theirs.tobytes(), (name, mine, theirs)


@st.composite
def scans(draw):
    """Rows, aggregate calls, and the raw draws behind every weight and
    selection mode; the test runs each case under every grouping, weight
    mode and selection mode."""
    rows = draw(
        st.lists(
            st.tuples(*(st.sampled_from(VALUES[name]) for name in SCHEMA.names)),
            max_size=14,
        )
    )
    n = len(rows)
    weights = {
        mode: draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        for mode, pool in WEIGHT_POOLS.items()
    }
    selection = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    calls = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
                st.sampled_from([*ARGUMENTS, "f/b"]),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return relation_of(rows), weights, selection, calls


def check_every_mode(relation, drawn_weights, drawn_selection, calls):
    n = relation.num_rows
    guard = None
    if any(argument == "f/b" for _, argument in calls):
        guard = np.asarray(relation.column("b")) != 0.0
    for group_keys in GROUPINGS:
        for weight_mode in WEIGHT_MODES:
            weights = weights_of(weight_mode, n, drawn_weights)
            specs, out_schema = plan_of(relation, group_keys, weights is not None, calls)
            for selection_mode in SELECTION_MODES:
                selection = selection_of(selection_mode, n, drawn_selection)
                if guard is not None:
                    selection = guard if selection is None else selection & guard
                args = (relation, group_keys, group_keys, specs, out_schema, weights, selection)
                assert_same(
                    outcome(oracles.grouped_aggregate, *args),
                    outcome(grouped_aggregate, *args),
                )


@settings(max_examples=150, deadline=None)
@given(scans())
@example(
    # -0.0 as the first selected value: a one-bin bincount sums to +0.0.
    (
        relation_of([("a", 0, 0, -0.0, 1.0), ("a", 0, 0, -0.0, 1.0), ("b", 1, 0, 2.0, 1.0)]),
        {"mixed": [1.0, 1.0, 0.0], "some_zero": [0.0, 1.0, 0.0]},
        [True, True, False],
        [("SUM", "f"), ("AVG", "f"), ("MIN", "f"), ("MAX", "f"), ("COUNT", "*")],
    )
)
@example(
    # int64 sums wrap identically past 2**63.
    (
        relation_of([("a", 0, 2**63 - 1, 0.0, 1.0), ("a", 0, 2**62, 0.0, 1.0)] * 3),
        {"mixed": [1.0] * 6, "some_zero": [0.0, 1.0] * 3},
        [True] * 6,
        [("SUM", "i"), ("AVG", "i"), ("SUM", "i+g")],
    )
)
@example(
    # Positive and negative mass that cancel: AVG over zero total weight.
    (
        relation_of([("a", 0, 1, 1.0, 1.0), ("a", 0, 2, 2.0, 1.0)]),
        {"mixed": [1.0, -1.0], "some_zero": [0.0, 1.0]},
        [True, True],
        [("AVG", "f"), ("AVG", "i"), ("COUNT", "*")],
    )
)
def test_kernel_equals_oracle(case):
    check_every_mode(*case)


def test_long_float_sums_stay_left_to_right():
    # Long enough that a pairwise (np.sum) order would move the last ulp.
    rng = np.random.default_rng(11)
    n = 5_000
    rows = list(
        zip(
            rng.choice(["a", "b", "c"], n),
            rng.integers(0, 3, n).tolist(),
            rng.integers(-1_000, 1_000, n).tolist(),
            (rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)).tolist(),
            rng.choice([0.0, 2.0, -0.5], n).tolist(),
        )
    )
    drawn_weights = {mode: rng.choice(pool, n).tolist() for mode, pool in WEIGHT_POOLS.items()}
    calls = [("SUM", "f"), ("AVG", "f"), ("AVG", "i"), ("COUNT", "*"), ("AVG", "f/b")]
    check_every_mode(relation_of(rows), drawn_weights, (rng.random(n) < 0.6).tolist(), calls)


@pytest.mark.parametrize("group_keys", GROUPINGS)
@pytest.mark.parametrize("weighted", [False, True])
def test_empty_relation(group_keys, weighted):
    relation = relation_of([])
    calls = [(func, "f") for func in ("COUNT", "SUM", "AVG", "MIN", "MAX")]
    for call in calls:
        specs, out_schema = plan_of(relation, group_keys, weighted, [call])
        args = (relation, group_keys, group_keys, specs, out_schema, np.zeros(0) if weighted else None, None)
        assert_same(outcome(oracles.grouped_aggregate, *args), outcome(grouped_aggregate, *args))


def test_many_groups_share_one_order_for_min_and_max():
    # Thousands of groups (uint16 order) under a selection and weights.
    rng = np.random.default_rng(7)
    n = 60_000
    relation = Relation.from_columns(
        Schema.of(g=DType.INT, f=DType.FLOAT),
        {"g": rng.integers(0, 3_000, n), "f": rng.normal(size=n)},
    )
    specs, out_schema = plan_of(
        Relation.empty(SCHEMA), (), True, [("MIN", "f"), ("MAX", "f"), ("AVG", "f")]
    )
    out_schema = Schema([Field("g", DType.INT), *out_schema.fields])
    weights = np.where(rng.random(n) < 0.2, 0.0, rng.random(n))
    selection = rng.random(n) < 0.7
    for w in (None, weights):
        args = (relation, ("g",), ("g",), specs, out_schema, w, selection)
        assert_same(outcome(oracles.grouped_aggregate, *args), outcome(grouped_aggregate, *args))


@pytest.mark.parametrize("num_groups", [1, 255, 256, 257, 65_535, 65_536, 65_537, 70_000])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_narrow_order_is_the_int64_stable_order(num_groups, dtype):
    rng = np.random.default_rng(num_groups)
    codes = rng.integers(0, num_groups, 5_000).astype(dtype)
    codes[:3] = [num_groups - 1, 0, num_groups - 1]  # the extremes, repeated
    expected = np.argsort(codes.astype(np.int64), kind="stable")
    got = stable_group_order(codes, num_groups)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_group_rows_partitions_in_row_order():
    relation = relation_of([("b", 1, 0, 0.0, 1.0), ("a", 2, 0, 0.0, 1.0), ("b", 0, 0, 0.0, 1.0)] * 2)
    groups = group_rows(relation, ["k"])
    assert [key for key, _ in groups] == [("a",), ("b",)]
    assert [rows.tolist() for _, rows in groups] == [[1, 4], [0, 2, 3, 5]]
