"""Large scans against an independent brute force, and across a reopen.

A 200k-row sample (above the old 65,536-row morsel threshold) is queried
CLOSED and SEMI-OPEN (its stored weights) with every aggregate, grouped by
a TEXT key, by a numeric key, and ungrouped, with and without a WHERE
clause.  Each answer is checked against a per-group brute force written
here from the SQL semantics: ``math.fsum`` for float sums at
``rtol=1e-12``; exact equality for COUNT, MIN, MAX and integer SUM
(weights are multiples of 1/4, so even weighted COUNTs sum exactly).
Then the database is checkpointed and reopened — the sample comes back
as mmap-backed page views — and every SELECT must answer byte-identically.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import MosaicDB
from repro.relational.dtypes import DType
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.storage.pages import MappedRelation

ROWS = 200_000
SCHEMA = Schema.of(carrier=DType.TEXT, bucket=DType.INT, n=DType.INT, x=DType.FLOAT, w=DType.FLOAT)

#: (SQL aggregate, alias, function, argument column).
AGGREGATES = (
    ("COUNT(*)", "c", "COUNT", None),
    ("SUM(n)", "sn", "SUM", "n"),
    ("SUM(x)", "sx", "SUM", "x"),
    ("AVG(n)", "an", "AVG", "n"),
    ("AVG(x)", "ax", "AVG", "x"),
    ("MIN(n)", "mnn", "MIN", "n"),
    ("MAX(n)", "mxn", "MAX", "n"),
    ("MIN(x)", "mnx", "MIN", "x"),
    ("MAX(x)", "mxx", "MAX", "x"),
)
KEYS = (None, "carrier", "bucket")
WHERES = (None, "x > 1.0 AND carrier != 'C07'")
VISIBILITIES = ("CLOSED", "SEMI-OPEN")


def sql_of(visibility: str, key: str | None, where: str | None) -> str:
    items = ", ".join(f"{sql} AS {alias}" for sql, alias, _, _ in AGGREGATES)
    if key is not None:
        items = f"{key}, {items}"
    sql = f"SELECT {visibility} {items} FROM S"
    if where is not None:
        sql += f" WHERE {where}"
    if key is not None:
        sql += f" GROUP BY {key}"
    return sql


STATEMENTS = [
    (visibility, key, where, sql_of(visibility, key, where))
    for visibility in VISIBILITIES
    for key in KEYS
    for where in WHERES
]


def make_columns(seed: int = 5) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    carriers = np.array([f"C{c:02d}" for c in range(20)], dtype=object)
    return {
        "carrier": carriers[rng.zipf(1.6, ROWS) % 20],
        "bucket": rng.integers(0, 50, ROWS),
        "n": rng.integers(0, 1_000, ROWS),
        "x": rng.lognormal(0.0, 1.0, ROWS),
        # Dyadic weights (multiples of 1/4): every weight sum is exact.
        "w": rng.choice([0.0, 0.25, 0.5, 1.0, 2.75], ROWS, p=[0.1, 0.2, 0.3, 0.3, 0.1]),
    }


def build(data_dir, columns) -> MosaicDB:
    db = MosaicDB(seed=3, data_dir=str(data_dir))
    db.execute(
        "CREATE GLOBAL POPULATION P (carrier TEXT, bucket INT, n INT, x FLOAT, w FLOAT)"
    )
    db.execute("CREATE SAMPLE S AS (SELECT * FROM P)")
    db.ingest_relation("S", Relation.from_columns(SCHEMA, columns))
    db.execute("UPDATE SAMPLE S SET WEIGHT = w")
    return db


def brute_force(columns, visibility, key, where) -> dict:
    """``{group key: {alias: value}}`` straight from the SQL semantics."""
    x, carrier = columns["x"], columns["carrier"]
    selected = np.ones(ROWS, dtype=bool)
    if where is not None:
        selected = (x > 1.0) & (carrier != "C07")
    weights = columns["w"] if visibility == "SEMI-OPEN" else None
    keys = np.zeros(ROWS, dtype=np.int64) if key is None else columns[key]
    answer = {}
    for group in np.unique(keys[selected]):
        rows = selected & (keys == group)
        w = None if weights is None else weights[rows]
        if w is not None and not (w > 0.0).any():
            continue  # reweighted away
        values = {}
        for _, alias, func, column in AGGREGATES:
            v = None if column is None else columns[column][rows]
            if func == "COUNT":
                values[alias] = int(rows.sum()) if w is None else math.fsum(w)
            elif func == "SUM":
                if w is not None:
                    values[alias] = math.fsum(w * v)
                elif column == "n":
                    values[alias] = sum(int(i) for i in v)
                else:
                    values[alias] = math.fsum(v)
            elif func == "AVG":
                if w is None:
                    values[alias] = math.fsum(v.astype(float)) / v.size
                else:
                    values[alias] = math.fsum(w * v) / math.fsum(w)
            else:
                alive = v if w is None else v[w > 0.0]
                values[alias] = alive.min() if func == "MIN" else alive.max()
        answer[group] = values
    return answer


@pytest.fixture(scope="module")
def columns():
    return make_columns()


@pytest.fixture(scope="module")
def db(columns, tmp_path_factory):
    database = build(tmp_path_factory.mktemp("large-scan"), columns)
    yield database
    database.close()


@pytest.mark.parametrize(
    "visibility,key,where,sql",
    STATEMENTS,
    ids=[f"{v}-{k or 'ungrouped'}-{'where' if w else 'all'}" for v, k, w, _ in STATEMENTS],
)
def test_large_scan_matches_brute_force(db, columns, visibility, key, where, sql):
    relation = db.execute(sql).relation
    expected = brute_force(columns, visibility, key, where)
    groups = [0] * relation.num_rows if key is None else list(relation.column(key))
    assert sorted(expected) == groups
    for row, group in enumerate(groups):
        want = expected[group]
        for _, alias, func, column in AGGREGATES:
            got = relation.column(alias)[row]
            exact = func in ("COUNT", "MIN", "MAX") or (
                func == "SUM" and column == "n" and visibility == "CLOSED"
            )
            if exact:
                assert got == want[alias], (sql, group, alias)
            else:
                assert got == pytest.approx(want[alias], rel=1e-12, abs=0.0), (
                    sql,
                    group,
                    alias,
                )


def test_checkpoint_reopen_answers_byte_identically(columns, tmp_path):
    db = build(tmp_path, columns)
    before = [db.execute(sql).relation for *_, sql in STATEMENTS]
    db.checkpoint()
    db.close()

    reopened = MosaicDB(seed=3, data_dir=str(tmp_path))
    try:
        # The restored sample is views over the mapped page file.
        assert isinstance(reopened.engine.catalog.sample("S").relation, MappedRelation)
        for (*_, sql), first in zip(STATEMENTS, before):
            again = reopened.execute(sql).relation
            assert again.schema == first.schema, sql
            for name in first.column_names:
                a, b = first.column(name), again.column(name)
                if a.dtype == object:
                    assert list(a) == list(b), (sql, name)
                else:
                    assert a.tobytes() == b.tobytes(), (sql, name)
    finally:
        reopened.close()
