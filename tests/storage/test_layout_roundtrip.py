"""One column layout through three carriers: shm, page file, RESULT frame.

Every relation must come back bit-identical through each carrier:
numeric columns byte for byte, TEXT columns as the same ``(vocab,
codes)`` encoding, extras byte for byte.  ``data/golden.page`` is a page
written by the page writer before the layout was shared; today's writer
must reproduce it byte for byte.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.result import QueryResult
from repro.errors import SchemaError
from repro.relational.dtypes import DType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.relational.shm import attach_relation, share_relation
from repro.server import protocol
from repro.storage.pages import open_page, write_page

GOLDEN = Path(__file__).parent / "data" / "golden.page"


def golden_relation() -> tuple[Relation, dict[str, np.ndarray]]:
    """The relation behind ``data/golden.page``: every type, a superset vocab.

    Filtering drops every ``"Ann Arbor"`` row but keeps it in the stored
    vocab; the TEXT values are non-ASCII; FLOAT carries NaN, -0.0 and inf;
    ``__weights__`` is the one extra.
    """
    base = Relation.from_columns(
        Schema.of(id=DType.INT, score=DType.FLOAT, ok=DType.BOOL, city=DType.TEXT),
        {
            "id": [7, -3, 2**40, 0, 11, 5, -1, 9],
            "score": [0.5, float("nan"), -0.0, float("inf"), 2.25, -1.5, 1e-300, 3.0],
            "ok": [True, False, True, True, False, False, True, False],
            "city": ["Zürich", "東京", "Ann Arbor", "São Paulo", "東京", "Ann Arbor", "Zürich", "Ωmega"],
        },
    )
    relation = base.filter(base.column("city") != "Ann Arbor")
    weights = np.linspace(0.25, 4.0, relation.num_rows)
    return relation, {"__weights__": weights}


# --------------------------------------------------------------------- #
# The three carriers
# --------------------------------------------------------------------- #


def through_shm(relation, extras):
    handle = share_relation(relation, extras)
    try:
        attached = attach_relation(handle.descriptor)
        try:
            yield attached.relation, attached.extras
        finally:
            attached.close()
    finally:
        handle.release()


def through_page(relation, extras):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "t.page")
        write_page(path, relation, extras)
        yield open_page(path)


def through_wire(relation, extras):
    # A RESULT carries no extras.
    payload = protocol.encode_result(QueryResult(relation, notes=("n",)))
    yield protocol.decode_result(payload).relation, {}


CARRIERS = {"shm": through_shm, "page": through_page, "wire": through_wire}


def round_trips(relation, extras=None):
    """``(carrier, relation, extras)`` back through each carrier in turn."""
    for name, carrier in CARRIERS.items():
        for restored, restored_extras in carrier(relation, extras or {}):
            yield name, restored, restored_extras


def stored_encoding(relation: Relation, name: str):
    return relation.encoding(name) or relation.dictionary(name)


def assert_bit_identical(restored: Relation, original: Relation) -> None:
    assert restored.schema == original.schema
    assert restored.num_rows == original.num_rows
    for field in original.schema:
        if field.dtype is DType.TEXT:
            vocab, codes = stored_encoding(original, field.name)
            restored_vocab, restored_codes = restored.encoding(field.name)
            assert list(restored_vocab) == list(vocab)
            assert restored_codes.dtype == np.int32
            assert restored_codes.tobytes() == codes.tobytes()
            assert list(restored.column(field.name)) == list(original.column(field.name))
        else:
            ours, theirs = original.column(field.name), restored.column(field.name)
            assert theirs.dtype == ours.dtype == field.dtype.numpy_dtype
            assert theirs.tobytes() == ours.tobytes()


def assert_carriers_round_trip(relation, extras=None) -> None:
    for carrier, restored, restored_extras in round_trips(relation, extras):
        assert_bit_identical(restored, relation)
        if carrier != "wire":
            assert sorted(restored_extras) == sorted(extras or {})
            for name, values in (extras or {}).items():
                assert restored_extras[name].dtype == values.dtype
                assert restored_extras[name].tobytes() == values.tobytes()


# --------------------------------------------------------------------- #
# Generated relations
# --------------------------------------------------------------------- #

TEXT_VALUES = st.text(alphabet=st.sampled_from("ab zé東Ω "), max_size=4)
VALUES = {
    DType.INT: st.integers(-(2**63), 2**63 - 1),
    DType.FLOAT: st.floats(allow_nan=True, allow_infinity=True),
    DType.BOOL: st.booleans(),
    DType.TEXT: TEXT_VALUES,
}


@st.composite
def relations(draw):
    """A relation of 0–12 rows over 1–5 typed columns, maybe filtered or
    concatenated (superset / merged vocab), maybe with ``__weights__``."""
    dtypes = draw(st.lists(st.sampled_from(list(DType)), min_size=1, max_size=5))
    schema = Schema([Field(f"c{i}", dtype) for i, dtype in enumerate(dtypes)])

    def build(rows):
        return Relation.from_columns(
            schema,
            {
                field.name: draw(st.lists(VALUES[field.dtype], min_size=rows, max_size=rows))
                for field in schema
            },
        )

    relation = build(draw(st.integers(0, 12)))
    shape = draw(st.sampled_from(["plain", "filtered", "concat"]))
    if shape == "filtered":
        mask = draw(st.lists(st.booleans(), min_size=relation.num_rows, max_size=relation.num_rows))
        relation = relation.filter(np.asarray(mask, dtype=bool))
    elif shape == "concat":
        relation = relation.concat(build(draw(st.integers(0, 4))))
    extras = None
    if draw(st.booleans()):
        extras = {
            "__weights__": np.asarray(
                draw(st.lists(st.floats(0, 1e6), min_size=relation.num_rows, max_size=relation.num_rows)),
                dtype=np.float64,
            )
        }
    return relation, extras


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations())
def test_generated_relations_round_trip_through_every_carrier(case):
    relation, extras = case
    assert_carriers_round_trip(relation, extras)


# --------------------------------------------------------------------- #
# Named cases
# --------------------------------------------------------------------- #


def test_golden_relation_round_trips():
    assert_carriers_round_trip(*golden_relation())


def test_golden_page_is_reproduced_byte_for_byte(tmp_path):
    relation, extras = golden_relation()
    path = tmp_path / "golden.page"
    size = write_page(path, relation, extras)
    assert path.read_bytes() == GOLDEN.read_bytes()
    assert size == GOLDEN.stat().st_size


def test_golden_page_opens():
    mapped, extras = open_page(GOLDEN)
    relation, expected_extras = golden_relation()
    assert_bit_identical(mapped, relation)
    assert extras["__weights__"].tobytes() == expected_extras["__weights__"].tobytes()
    vocab, _ = mapped.encoding("city")
    assert "Ann Arbor" in list(vocab)  # the superset vocab survived


def test_empty_relation_and_empty_vocab():
    empty = Relation.empty(Schema.of(x=DType.INT, t=DType.TEXT, b=DType.BOOL))
    assert_carriers_round_trip(empty, {"__weights__": np.empty(0)})
    for _, restored, _ in round_trips(empty):
        vocab, codes = restored.encoding("t")
        assert vocab.size == 0 and codes.size == 0


def test_merged_vocab_round_trips():
    # concat merges vocabularies code-side; the carriers must carry the
    # merged vocab, including entries only one side uses.
    left = Relation.from_dict({"t": ["b", "a"], "n": [1, 2]})
    merged = left.concat(Relation.from_dict({"t": ["zz"], "n": [3]}))
    assert_carriers_round_trip(merged)
    for _, restored, _ in round_trips(merged):
        assert list(restored.encoding("t")[0]) == ["a", "b", "zz"]


def test_raw_constructed_text_column_ships_its_dictionary():
    # No stored encoding: the dense dictionary crosses instead.
    column = np.asarray(["y", "x", "y"], dtype=object)
    relation = Relation(Schema.of(t=DType.TEXT), {"t": column})
    assert relation.encoding("t") is None
    for _, restored, _ in round_trips(relation):
        vocab, codes = restored.encoding("t")
        assert list(vocab) == ["x", "y"] and list(codes) == [1, 0, 1]


def test_restored_views_are_read_only():
    relation, extras = golden_relation()
    for _, restored, restored_extras in round_trips(relation, extras):
        with pytest.raises(ValueError):
            restored.column("id")[0] = 99
        for values in restored_extras.values():
            assert not values.flags.writeable


@pytest.mark.parametrize(
    "extra",
    [np.ones(7), np.ones((6, 2)), np.asarray(["x"] * 6, dtype=object)],
    ids=["wrong-rows", "two-dimensional", "object"],
)
@pytest.mark.parametrize("write", [share_relation, write_page], ids=["shm", "page"])
def test_extras_must_be_one_number_per_row(tmp_path, write, extra):
    relation, _ = golden_relation()
    args = (relation,) if write is share_relation else (tmp_path / "t.page", relation)
    with pytest.raises(SchemaError):
        write(*args, {"w": extra})
