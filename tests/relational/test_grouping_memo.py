"""Memoized group codes against the unmemoized reference.

``Relation.group_codes`` computes a key list's dense group codes once and
serves every later call from a memo beside the relation's dictionaries.
Every memo hit here is compared with ``oracles.group_codes`` (the body
``groupby.group_codes`` had before the memo) by ``tobytes()`` equality, and
the grouped-aggregate kernel with the memo against ``oracles.grouped_aggregate``.
The memo never reaches a pickle or a checkpoint.
"""

from __future__ import annotations

import importlib.util
import pickle
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import MosaicDB
from repro.relational.aggregates import AggregateSpec
from repro.relational.dtypes import DType
from repro.relational.expressions import ColumnRef
from repro.relational.groupby import distinct_indices, group_rows
from repro.relational.kernels import grouped_aggregate
from repro.relational.relation import Relation, dictionary_stats
from repro.relational.schema import Field, Schema

# Loaded by path: other test directories have an ``oracles`` module too.
_spec = importlib.util.spec_from_file_location(
    "relational_oracles", Path(__file__).with_name("oracles.py")
)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

SCHEMA = Schema.of(t=DType.TEXT, i=DType.INT, f=DType.FLOAT, v=DType.FLOAT)

#: 0, 1, 2 and 3 keys over TEXT with an encoding (t) and without (u), INT
#: and FLOAT; order matters, so (i, t) is a different grouping from (t, i).
KEY_LISTS = [
    (),
    ("t",),
    ("u",),
    ("i",),
    ("f",),
    ("t", "i"),
    ("i", "t"),
    ("u", "f"),
    ("t", "i", "f"),
    ("f", "u", "i"),
]


def mixed_relation(n: int, seed: int = 0, domain: int = 5) -> Relation:
    """``n`` rows; ``u`` is TEXT without a stored encoding."""
    rng = np.random.default_rng(seed)
    relation = Relation.from_columns(
        SCHEMA,
        {
            "t": [f"t{x}" for x in rng.integers(0, domain, n)],
            "i": rng.integers(-domain, domain, n),
            "f": rng.choice([0.5, -1.25, 3.0, 1e9, -0.0][: max(domain, 1)], n),
            "v": rng.normal(size=n),
        },
    )
    unencoded = np.empty(n, dtype=object)
    unencoded[:] = [f"u{x}" for x in rng.integers(0, domain, n)]
    return relation.with_column("u", DType.TEXT, unencoded)


def assert_same_grouping(got, want):
    (codes, num_groups, first), (want_codes, want_groups, want_first) = got, want
    assert num_groups == want_groups
    assert codes.dtype == want_codes.dtype
    assert codes.tobytes() == want_codes.tobytes()
    assert first.dtype == want_first.dtype
    assert first.tobytes() == want_first.tobytes()


def cross_product(relation: Relation, keys) -> int:
    product = 1
    for name in keys:
        product *= len(relation.dictionary(name)[0])
    return product


def test_unencoded_column_has_no_stored_encoding():
    relation = mixed_relation(10)
    assert relation.encoding("u") is None
    assert relation.encoding("t") is not None


@pytest.mark.parametrize("keys", KEY_LISTS)
def test_memo_hit_equals_reference(keys):
    relation = mixed_relation(400)
    built = relation.group_codes(keys)
    hit = relation.group_codes(list(keys))
    assert hit is built
    assert list(relation._groupings) == [tuple(keys)]
    assert_same_grouping(hit, oracles.group_codes(relation, keys))
    # Shared by every caller: what the memo allocated cannot be written.
    assert not hit[2].flags.writeable
    if len(keys) != 1:
        assert not hit[0].flags.writeable


def test_both_multi_key_branches():
    # Presence bitmap: 5 x 10 cells, far below max(4n, 1024).
    small = mixed_relation(300)
    assert cross_product(small, ("t", "i")) <= max(4 * 300, 1024)
    # np.unique: 250 x 250 cells past max(4n, 1024) = 1200.
    large = mixed_relation(300, seed=1, domain=250).with_column(
        "j", DType.INT, np.random.default_rng(2).integers(0, 250, 300)
    )
    keys = ("i", "j", "u")
    assert cross_product(large, keys) > max(4 * 300, 1024)
    for relation, key_list in ((small, ("t", "i")), (large, keys)):
        built = relation.group_codes(key_list)
        assert relation.group_codes(key_list) is built
        assert_same_grouping(built, oracles.group_codes(relation, key_list))


@pytest.mark.parametrize("keys", KEY_LISTS)
def test_empty_relation(keys):
    relation = mixed_relation(0)
    built = relation.group_codes(keys)
    assert relation.group_codes(keys) is built
    assert_same_grouping(built, oracles.group_codes(relation, keys))
    assert built[1] == (1 if not keys else 0)


@pytest.mark.parametrize(
    "derive",
    [
        lambda r: r.filter(np.arange(r.num_rows) % 3 != 0),
        lambda r: r.take(np.array([5, 5, 0, 99, 42, 7])),
        lambda r: r.concat(mixed_relation(50, seed=9)),
    ],
    ids=["filter", "take", "concat"],
)
def test_derived_relations_start_with_an_empty_memo(derive):
    relation = mixed_relation(120)
    for keys in KEY_LISTS:
        relation.group_codes(keys)
    derived = derive(relation)
    assert derived._groupings == {}
    for keys in KEY_LISTS:
        assert_same_grouping(derived.group_codes(keys), oracles.group_codes(derived, keys))
    assert relation._groupings.keys() == derived._groupings.keys()


def test_group_rows_and_distinct_indices_read_the_memo():
    relation = mixed_relation(200)
    keys = ["t", "f"]
    groups = group_rows(relation, keys)
    codes, num_groups, first = relation.group_codes(keys)
    assert list(relation._groupings) == [tuple(keys)]
    assert distinct_indices(relation, keys) is first
    assert len(groups) == num_groups
    for group_id, (_, indices) in enumerate(groups):
        assert indices.tolist() == np.flatnonzero(codes == group_id).tolist()


def test_racing_threads_publish_one_entry():
    relation = mixed_relation(50_000, domain=40)
    keys = ["t", "i", "f"]
    workers = 8  # more threads than cores
    barrier = threading.Barrier(workers, timeout=30)
    results: list = [None] * workers

    def race(slot: int) -> None:
        barrier.wait()
        results[slot] = relation.group_codes(keys)

    threads = [threading.Thread(target=race, args=(slot,)) for slot in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result is results[0] for result in results)
    assert list(relation._groupings) == [tuple(keys)]
    assert_same_grouping(results[0], oracles.group_codes(relation, keys))


def aggregate_plan(relation: Relation, keys, weighted: bool):
    specs = [
        AggregateSpec("COUNT", None, "n"),
        AggregateSpec("SUM", ColumnRef("i"), "s"),
        AggregateSpec("AVG", ColumnRef("v"), "a"),
        AggregateSpec("MIN", ColumnRef("v"), "lo"),
        AggregateSpec("MAX", ColumnRef("i"), "hi"),
    ]
    fields = [Field(key, relation.schema.dtype(key)) for key in keys]
    fields += [Field(s.alias, s.output_dtype(relation.schema, weighted)) for s in specs]
    return specs, Schema(fields)


def assert_same_relation(got: Relation, want: Relation):
    assert got.schema == want.schema
    for name in want.column_names:
        mine, theirs = got.column(name), want.column(name)
        assert mine.dtype == theirs.dtype, name
        if theirs.dtype == object:
            assert list(mine) == list(theirs), name
        else:
            assert mine.tobytes() == theirs.tobytes(), name


@pytest.mark.parametrize("keys", [k for k in KEY_LISTS if k])
@pytest.mark.parametrize("weighted", [False, True])
def test_grouped_aggregate_with_selection_and_weights_equals_oracle(keys, weighted):
    relation = mixed_relation(600, domain=7)
    rng = np.random.default_rng(5)
    weights = rng.choice([0.0, 0.5, 1.0, 2.25], relation.num_rows) if weighted else None
    specs, out_schema = aggregate_plan(relation, keys, weighted)
    for selection in (None, rng.random(relation.num_rows) < 0.3, np.zeros(600, dtype=bool)):
        args = (relation, keys, keys, specs, out_schema, weights, selection)
        first = grouped_aggregate(*args)
        again = grouped_aggregate(*args)  # served from the memo
        want = oracles.grouped_aggregate(*args)
        assert_same_relation(first, want)
        assert_same_relation(again, want)
    assert list(relation._groupings) == [tuple(keys)]


def test_pickle_bytes_are_the_same_with_the_memo_filled():
    relation = mixed_relation(500)
    # What a grouped query leaves besides the memo: the key dictionaries.
    for name in relation.column_names:
        relation.dictionary(name)
    before = pickle.dumps(relation)
    for keys in KEY_LISTS:
        specs, out_schema = aggregate_plan(relation, keys, False)
        grouped_aggregate(relation, keys, keys, specs, out_schema)
        relation.group_codes(keys)
    assert len(relation._groupings) == len(KEY_LISTS)
    assert pickle.dumps(relation) == before

    restored = pickle.loads(before)
    assert restored._groupings == {}
    for keys in KEY_LISTS:
        assert_same_grouping(restored.group_codes(keys), oracles.group_codes(relation, keys))


SETUP = """
CREATE GLOBAL POPULATION People (country TEXT, age INT);
CREATE TABLE counts (country TEXT, n INT);
INSERT INTO counts VALUES ('UK', 120), ('FR', 200), ('DE', 150);
CREATE METADATA People_M1 AS (SELECT country, n FROM counts);
CREATE SAMPLE S AS (SELECT * FROM People)
"""
QUERIES = [
    "SELECT SEMI-OPEN country, COUNT(*) AS n FROM People GROUP BY country",
    "SELECT CLOSED country, age, COUNT(*) AS n FROM S GROUP BY country, age",
]


def test_checkpoint_reopen_comes_back_with_an_empty_memo(tmp_path):
    db = MosaicDB(seed=3, data_dir=str(tmp_path))
    db.execute_script(SETUP)
    db.ingest_rows("S", [("UK", 30)] * 40 + [("FR", 41)] * 30 + [("DE", 50)] * 30)
    answers = [db.execute(sql).relation.to_pylist() for sql in QUERIES]
    assert db.catalog.sample("S").relation._groupings
    db.close()  # final checkpoint: the tables, the catalog and the raked sample

    reopened = MosaicDB(seed=3, data_dir=str(tmp_path))
    try:
        assert reopened.cache_stats()["storage"]["restored_models"] == 1
        assert reopened.catalog.sample("S").relation._groupings == {}
        persisted = reopened.engine._reweight_cache.snapshot()
        assert persisted
        for _, _, (relation, _, _) in persisted:
            assert relation._groupings == {}
        assert [reopened.execute(sql).relation.to_pylist() for sql in QUERIES] == answers
    finally:
        reopened.close()


def test_grouping_counters_in_dictionary_stats():
    relation = mixed_relation(100)
    before = dictionary_stats()
    relation.group_codes(["t", "i"])
    relation.group_codes(["t", "i"])
    relation.group_codes(["i", "t"])
    after = dictionary_stats()
    assert after["grouping_builds"] - before["grouping_builds"] == 2
    assert after["grouping_reuse_hits"] - before["grouping_reuse_hits"] == 1

    db = MosaicDB(seed=1)
    try:
        db.execute_script("CREATE TEMPORARY TABLE T (k TEXT, n INT)")
        db.execute("INSERT INTO T VALUES ('a', 1), ('b', 2), ('a', 3)")
        sql = "SELECT k, SUM(n) AS total FROM T GROUP BY k"
        db.execute(sql)
        start = db.cache_stats()["dictionaries"]
        db.execute(sql)
        end = db.cache_stats()["dictionaries"]
        assert end["grouping_reuse_hits"] == start["grouping_reuse_hits"] + 1
        assert end["grouping_builds"] == start["grouping_builds"]
    finally:
        db.close()
