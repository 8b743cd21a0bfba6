"""The vectorised, extendable cell matcher against the body it replaced.

``oracles.py`` (beside this file) holds ``assign_cells`` as it was: one
Python probe per distinct combo, always from row 0.  Every case here must
give equal ``cell_keys`` (equal element types too) and ``tobytes()``-equal
``row_cell`` / ``target_mass`` — assigned at once, and assigned as a
prefix plus one to four appends, for every way of cutting the rows.
"""

from __future__ import annotations

import importlib.util
import itertools
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.metadata import Marginal
from repro.errors import ReweightError
from repro.relational.dtypes import DType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.reweight.contingency import CellAssignment, assign_cells

# Loaded by path: tests/generative has an ``oracles`` module too, and test
# directories without packages share one module namespace.
_spec = importlib.util.spec_from_file_location(
    "reweight_oracles", Path(__file__).with_name("oracles.py")
)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

NAN = float("nan")

#: Per column type: the values rows are drawn from, and the values marginal
#: keys are drawn from — the column's own, the same numbers in another
#: type (``5`` / ``5.0``), values of a type the column never holds, values
#: no row has, and NaN.
ROW_VALUES = {
    DType.TEXT: ["a", "b", "c", "5", "7"],
    DType.INT: [0, 1, 5, 7, -3],
    DType.FLOAT: [0.0, -0.0, 0.5, 5.0, 7.0, NAN],
}
KEY_VALUES = {
    DType.TEXT: ["a", "b", "zz", "5", 5, 7.0],
    DType.INT: [0, 1, 5.0, 7, "5", 99, 2.5],
    DType.FLOAT: [0.0, 0.5, 5, 7, NAN, "a", 42.0],
}


def relation_of(dtypes: tuple[DType, DType], rows: list[tuple]) -> Relation:
    schema = Schema([Field("x", dtypes[0]), Field("y", dtypes[1])])
    return Relation.from_columns(
        schema, {"x": [row[0] for row in rows], "y": [row[1] for row in rows]}
    )


@st.composite
def cases(draw, max_rows: int = 7):
    dtypes = (draw(st.sampled_from(list(DType)[:3])), draw(st.sampled_from(list(DType)[:3])))
    rows = draw(
        st.lists(
            st.tuples(*(st.sampled_from(ROW_VALUES[dtype]) for dtype in dtypes)),
            max_size=max_rows,
        )
    )
    attributes = draw(st.sampled_from([("x",), ("y",), ("x", "y"), ("y", "x")]))
    axis_dtypes = [dtypes["xy".index(attribute)] for attribute in attributes]
    keys = draw(
        st.lists(
            st.tuples(*(st.sampled_from(KEY_VALUES[dtype]) for dtype in axis_dtypes)),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    masses = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 2.5, 10.0]),
            min_size=len(keys),
            max_size=len(keys),
        )
    )
    return dtypes, rows, Marginal(attributes, dict(zip(keys, masses)))


def same_value(left, right) -> bool:
    return type(left) is type(right) and (left == right or (left != left and right != right))


def assert_same(got: CellAssignment, want: CellAssignment) -> None:
    assert len(got.cell_keys) == len(want.cell_keys)
    for got_key, want_key in zip(got.cell_keys, want.cell_keys):
        assert len(got_key) == len(want_key)
        assert all(map(same_value, got_key, want_key)), (got_key, want_key)
    assert got.row_cell.dtype == want.row_cell.dtype
    assert got.row_cell.tobytes() == want.row_cell.tobytes()
    assert got.target_mass.dtype == want.target_mass.dtype
    assert got.target_mass.tobytes() == want.target_mass.tobytes()


def every_split(count: int, max_appends: int = 4):
    """Every way to cut ``count`` rows into a (possibly empty) prefix plus
    one to ``max_appends`` non-empty appends, as lists of cut positions."""
    for appends in range(1, max_appends + 1):
        yield from itertools.combinations(range(count), appends)


def assign_in_pieces(dtypes, rows, marginal, cuts) -> CellAssignment:
    """Assign the prefix, then grow the relation the way an INSERT does
    (``concat`` of a separately built relation) and extend."""
    bounds = [*cuts, len(rows)]
    grown = relation_of(dtypes, rows[: bounds[0]])
    assignment = assign_cells(grown, marginal)
    for start, stop in zip(bounds, bounds[1:]):
        grown = grown.concat(relation_of(dtypes, rows[start:stop]))
        assignment = assign_cells(grown, marginal, extend=assignment)
    return assignment


@given(cases())
@settings(max_examples=120, deadline=None)
def test_matches_the_oracle_at_once_and_in_every_split(case):
    dtypes, rows, marginal = case
    relation = relation_of(dtypes, rows)
    want = oracles.assign_cells(relation, marginal)
    assert_same(assign_cells(relation, marginal), want)
    for cuts in every_split(len(rows)):
        assert_same(assign_in_pieces(dtypes, rows, marginal, cuts), want)


@given(cases(max_rows=60))
@settings(max_examples=60, deadline=None)
def test_matches_the_oracle_on_longer_relations(case):
    dtypes, rows, marginal = case
    relation = relation_of(dtypes, rows)
    want = oracles.assign_cells(relation, marginal)
    assert_same(assign_cells(relation, marginal), want)
    cuts = sorted({len(rows) // 3, len(rows) // 2, max(len(rows) - 1, 0)} - {len(rows)})
    if cuts:
        assert_same(assign_in_pieces(dtypes, rows, marginal, cuts), want)


INT_TEXT = (DType.INT, DType.TEXT)
FLOAT_TEXT = (DType.FLOAT, DType.TEXT)


@pytest.mark.parametrize(
    "dtypes, rows, marginal, expected_cells",
    [
        pytest.param(
            INT_TEXT, [(5, "a"), (7, "a"), (5, "b")],
            Marginal(("x",), {(5.0,): 3.0, (7,): 1.0}), [0, 1, 0],
            id="int-column-finds-float-keys",
        ),
        pytest.param(
            FLOAT_TEXT, [(5.0, "a"), (0.5, "a")],
            Marginal(("x",), {(5,): 3.0}), [0, 1],
            id="float-column-finds-int-keys",
        ),
        pytest.param(
            INT_TEXT, [(5, "5"), (7, "7")],
            Marginal(("y",), {(5,): 1.0, (7,): 2.0}), [2, 3],
            id="text-column-never-finds-numeric-keys",
        ),
        pytest.param(
            INT_TEXT, [(5, "a")],
            Marginal(("x",), {("5",): 1.0}), [1],
            id="int-column-never-finds-text-keys",
        ),
        pytest.param(
            FLOAT_TEXT, [(NAN, "a"), (1.0, "a"), (NAN, "b")],
            Marginal(("x",), {(NAN,): 4.0, (1.0,): 1.0}), [2, 1, 2],
            id="nan-never-matches-a-nan-key-but-shares-one-cell",
        ),
        pytest.param(
            FLOAT_TEXT, [(NAN, "a"), (NAN, "b"), (NAN, "a")],
            Marginal(("x", "y"), {(1.0, "a"): 1.0}), [1, 2, 1],
            id="nan-pairs-split-on-the-other-axis",
        ),
        pytest.param(
            INT_TEXT, [(1, "b"), (2, "a"), (1, "a"), (2, "a")],
            Marginal(("y", "x"), {("a", 1): 1.0, ("zz", 9): 0.0}), [2, 3, 0, 3],
            id="sample-only-pairs-number-by-first-row",
        ),
        pytest.param(
            INT_TEXT, [(3, "a")],
            Marginal(("x",), {(3,): 0.0}), [0],
            id="one-row-zero-mass-cell",
        ),
        pytest.param(
            INT_TEXT, [], Marginal(("x", "y"), {(3, "a"): 1.0}), [],
            id="empty-relation",
        ),
    ],
)
def test_documented_matching_rules(dtypes, rows, marginal, expected_cells):
    relation = relation_of(dtypes, rows)
    got = assign_cells(relation, marginal)
    assert got.row_cell.tolist() == expected_cells
    assert_same(got, oracles.assign_cells(relation, marginal))
    for cuts in every_split(len(rows)):
        assert_same(assign_in_pieces(dtypes, rows, marginal, cuts), got)


def test_new_sample_only_cells_arrive_in_the_tail():
    marginal = Marginal(("y",), {("a",): 1.0})
    rows = [(1, "a"), (1, "q"), (1, "a"), (1, "r"), (1, "q"), (1, "s")]
    prefix = assign_cells(relation_of(INT_TEXT, rows[:3]), marginal)
    assert prefix.cell_keys == (("a",), ("q",))
    grown = assign_cells(relation_of(INT_TEXT, rows), marginal, extend=prefix)
    assert grown.cell_keys == (("a",), ("q",), ("r",), ("s",))
    assert grown.row_cell.tolist() == [0, 1, 0, 2, 1, 3]
    assert grown.target_mass.tolist() == [1.0, 0.0, 0.0, 0.0]
    # The prefix's assignment is untouched, and extending by nothing is it.
    assert prefix.row_cell.tolist() == [0, 1, 0]
    assert assign_cells(relation_of(INT_TEXT, rows), marginal, extend=grown) is grown


def test_extension_does_not_encode_the_stored_rows():
    """Only the appended rows are dictionary encoded: the grown relation's
    own (n-row) dictionary of a numeric column is never built."""
    marginal = Marginal(("x",), {(1,): 1.0, (2,): 1.0})
    stored = relation_of(INT_TEXT, [(1, "a"), (2, "a")] * 50)
    prefix = assign_cells(stored, marginal)
    grown = stored.concat(relation_of(INT_TEXT, [(2, "a"), (3, "a")]))
    extended = assign_cells(grown, marginal, extend=prefix)
    assert "x" not in grown._dictionaries
    assert_same(extended, oracles.assign_cells(grown, marginal))


def test_rejects_a_prior_longer_than_the_relation():
    marginal = Marginal(("x",), {(1,): 1.0})
    prior = assign_cells(relation_of(INT_TEXT, [(1, "a"), (1, "a")]), marginal)
    with pytest.raises(ReweightError, match="cannot extend"):
        assign_cells(relation_of(INT_TEXT, [(1, "a")]), marginal, extend=prior)


def test_missing_attribute_raises():
    with pytest.raises(ReweightError, match="missing from sample columns"):
        assign_cells(relation_of(INT_TEXT, [(1, "a")]), Marginal(("z",), {(1,): 1.0}))


def test_marginal_pickles_the_same_bytes_after_a_rake_used_it():
    marginal = Marginal(("x", "y"), {(1, "a"): 2.0, (2, "b"): 3.0}, name="m")
    before = pickle.dumps(marginal, protocol=pickle.HIGHEST_PROTOCOL)
    assign_cells(relation_of(INT_TEXT, [(1, "a"), (9, "z")]), marginal)
    assert "cell_index" in vars(marginal)  # memoised on the marginal ...
    assert pickle.dumps(marginal, protocol=pickle.HIGHEST_PROTOCOL) == before
    restored = pickle.loads(before)
    assert "cell_index" not in vars(restored)  # ... and rebuilt after a restore
    assert_same(
        assign_cells(relation_of(INT_TEXT, [(1, "a"), (9, "z")]), restored),
        assign_cells(relation_of(INT_TEXT, [(1, "a"), (9, "z")]), marginal),
    )
