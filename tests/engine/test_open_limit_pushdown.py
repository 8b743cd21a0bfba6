"""LIMIT pushdown into OPEN generation ≡ full materialisation.

A non-aggregate OPEN plan of filters, a projection without DISTINCT and a
LIMIT stops generating once the LIMIT is met: ``prefix_limit`` reads the
LIMIT off the plan, and ``MSWG.generate(until=...)`` decodes the n-row
sample in consecutive row ranges (1,024 rows, then doubling) until enough
rows qualify.  The reference is the path every other plan takes — generate
the whole sample, then execute the plan over it — reached by patching
``prefix_limit`` to answer ``None``.  Every case runs in-process, over TCP
and through a 2-shard fleet, and the statement after it on the same
session must answer the same too (the session RNG advanced identically).

The population holds 5,000 tuples, so the non-aggregate sample is 5,000
rows — three ranges (1,024, 2,048, 1,928), not a multiple of the chunk.
"""

import numpy as np
import pytest

from repro import MosaicDB
from repro.catalog.metadata import Marginal
from repro.client import Connection
from repro.engine import open_world
from repro.engine.compiler import compile_select
from repro.engine.open_world import (
    BayesNetGenerator,
    IPFSynthesizer,
    OpenQueryConfig,
    prefix_limit,
)
from repro.fleet import FleetRouter
from repro.generative.mswg import MSWG
from repro.relational.dtypes import DType
from repro.relational.schema import Schema
from repro.server.server import MosaicServer
from repro.sql.parser import parse_statement

from test_open_stream import SAMPLE_ROWS, GenerateOnly, assert_identical, tiny_mswg

POPULATION = 5_000

GENERATORS = {
    "ipf-synth": IPFSynthesizer,
    "bayesnet": BayesNetGenerator,
    "mswg": tiny_mswg,
}

CASES = {
    "limit_0": "SELECT OPEN country, age FROM People WHERE age > 25 LIMIT 0",
    "limit_1": "SELECT OPEN country, age FROM People WHERE age > 25 LIMIT 1",
    "limit_50": "SELECT OPEN country, age FROM People WHERE age > 25 LIMIT 50",
    "limit_past_qualifying": "SELECT OPEN country, age FROM People "
    "WHERE age > 25 LIMIT 100000",
    "filter_matches_all": "SELECT OPEN email, age FROM People WHERE age >= 20 LIMIT 50",
    "filter_matches_none": "SELECT OPEN email, age FROM People WHERE age > 40 LIMIT 50",
    "view_predicate": "SELECT OPEN email, age FROM UkPeople WHERE age > 25 LIMIT 50",
    "star": "SELECT OPEN * FROM People WHERE email = 'AOL' LIMIT 50",
    "distinct": "SELECT OPEN DISTINCT country, email FROM People LIMIT 3",
    "order_by": "SELECT OPEN country, age FROM People WHERE age > 25 "
    "ORDER BY age DESC, country LIMIT 5",
}

#: Issued after each case on the same session: equal only if the case
#: left the session RNG where full materialisation leaves it.
NEXT_SQL = "SELECT OPEN country, COUNT(*) AS n FROM People GROUP BY country"


MARGINALS = [
    Marginal([name], {key: count * POPULATION // 1000 for key, count in cells.items()})
    for name, cells in {
        "country": {("UK",): 700, ("FR",): 250, ("DE",): 50},
        "email": {("Yahoo",): 600, ("AOL",): 400},
        "age": {(20,): 500, (30,): 300, (40,): 200},
    }.items()
]


def build_db(factory, seed: int = 0) -> MosaicDB:
    """Migrants-style database (TEXT and INT columns, a view) over a
    population of :data:`POPULATION` tuples."""
    db = MosaicDB(
        seed=seed,
        open_config=OpenQueryConfig(generator_factory=factory, repetitions=2),
    )
    db.execute_script(
        """
        CREATE GLOBAL POPULATION People (country TEXT, email TEXT, age INT);
        CREATE POPULATION UkPeople AS
            (SELECT * FROM People WHERE country = 'UK');
        CREATE SAMPLE S AS (SELECT * FROM People);
        """
    )
    for marginal in MARGINALS:
        db.register_marginal(f"M_{marginal.attributes[0]}", "People", marginal)
    db.ingest_rows("S", SAMPLE_ROWS)
    return db


def in_process(factory, statements):
    db = build_db(factory)
    return [db.execute(sql) for sql in statements]


def over_tcp(factory, statements):
    db = build_db(factory)
    server = MosaicServer(
        db.engine, port=0, session_config=db.session.config
    ).start_in_thread()
    try:
        with Connection("127.0.0.1", server.port) as conn:
            return [conn.execute(sql) for sql in statements]
    finally:
        server.stop_in_thread()


def through_fleet(factory, statements):
    dbs = [build_db(factory) for _ in range(2)]
    servers = [
        MosaicServer(
            db.engine, port=0, session_config=db.session.config, shard_id=index
        ).start_in_thread()
        for index, db in enumerate(dbs)
    ]
    router = FleetRouter(
        [("127.0.0.1", server.port) for server in servers], port=0
    ).start_in_thread()
    try:
        with Connection("127.0.0.1", router.port) as conn:
            return [conn.execute(sql) for sql in statements]
    finally:
        router.stop_in_thread()
        for server in servers:
            server.stop_in_thread()


#: route -> (how the pushdown answers, the reference session it must
#: match: a wire connection is the engine's first connected session).
ROUTES = {
    "in_process": (in_process, lambda factory: build_db(factory)),
    "tcp": (over_tcp, lambda factory: build_db(factory).connect()),
    "fleet": (through_fleet, lambda factory: build_db(factory).connect()),
}


@pytest.fixture
def full_materialisation(monkeypatch):
    """``full_materialisation(session, statements)``: the answers with the
    pushdown off — the whole sample generated, then the plan executed."""

    def run(session, statements):
        with monkeypatch.context() as patch:
            patch.setattr(open_world, "prefix_limit", lambda plan: None)
            return [session.execute(sql) for sql in statements]

    return run


class TestPushdownEqualsFullMaterialisation:
    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("name", list(GENERATORS))
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_answers_bit_identical(self, route, name, case, full_materialisation):
        factory = GENERATORS[name]
        run, reference_session = ROUTES[route]
        statements = [CASES[case], NEXT_SQL]
        expected = full_materialisation(reference_session(factory), statements)
        results = run(factory, statements)
        assert expected[0].has_note(f"generated {POPULATION} of up to {POPULATION}")
        for result, want in zip(results, expected):
            assert_identical(result, want)

    @pytest.mark.parametrize("name", list(GENERATORS))
    def test_filter_cases_select_what_they_claim(self, name):
        db = build_db(GENERATORS[name])
        assert db.execute(CASES["filter_matches_all"]).num_rows == 50
        assert db.execute(CASES["filter_matches_none"]).num_rows == 0
        past = db.execute(CASES["limit_past_qualifying"])
        assert 0 < past.num_rows < POPULATION


class TestWhereGenerationStops:
    def test_mswg_stops_after_the_first_range_that_meets_the_limit(self):
        result = build_db(tiny_mswg).execute(CASES["limit_50"])
        assert result.num_rows == 50
        assert result.has_note(
            f"non-aggregate OPEN query: generated 1024 of up to {POPULATION} row(s)"
        )
        assert result.repetitions_used == 1

    @pytest.mark.parametrize("case", ["distinct", "order_by"])
    def test_sort_and_distinct_generate_the_whole_sample(self, case):
        result = build_db(tiny_mswg).execute(CASES[case])
        assert result.has_note(f"generated {POPULATION} of up to {POPULATION}")

    @pytest.mark.parametrize("name", ["ipf-synth", "bayesnet"])
    def test_one_range_generators_produce_the_whole_sample(self, name):
        result = build_db(GENERATORS[name]).execute(CASES["limit_1"])
        assert result.has_note(f"generated {POPULATION} of up to {POPULATION}")

    def test_generator_without_until_still_answers(self, full_materialisation):
        expected = full_materialisation(build_db(GenerateOnly), [CASES["limit_50"]])
        (result,) = in_process(GenerateOnly, [CASES["limit_50"]])
        assert result.has_note(f"generated {POPULATION} of up to {POPULATION}")
        assert_identical(result, expected[0])

    def test_unmet_limit_decodes_each_row_exactly_once(self, monkeypatch):
        decoded = []
        decode = MSWG._decode_latents

        def recording(self, latents):
            decoded.append(latents.shape[0])
            return decode(self, latents)

        db = build_db(tiny_mswg)
        db.execute("SELECT OPEN country FROM People LIMIT 1")  # fit first
        decoded.clear()
        monkeypatch.setattr(MSWG, "_decode_latents", recording)
        result = db.execute(CASES["filter_matches_none"])
        assert result.num_rows == 0
        assert decoded == [1024, 2048, POPULATION - 3072]
        assert result.has_note(f"generated {POPULATION} of up to {POPULATION}")


class TestPrefixGeneration:
    @pytest.fixture(scope="class")
    def model(self):
        sample = build_db(tiny_mswg).engine.catalog.sample("S").relation
        return tiny_mswg().fit(sample, MARGINALS).model

    @pytest.mark.parametrize("n", [1, 1000, 1024, 3072, POPULATION])
    @pytest.mark.parametrize("ranges", [1, 2, 3])
    def test_prefix_is_the_head_of_the_full_sample(self, model, n, ranges):
        full = model.generate(n, rng=np.random.default_rng(11))
        seen = []
        prefix_rng = np.random.default_rng(11)
        prefix = model.generate(
            n, rng=prefix_rng, until=lambda part: seen.append(part) or len(seen) == ranges
        )
        assert prefix.num_rows == sum(part.num_rows for part in seen)
        assert prefix.num_rows == min(n, 1024 * (2**ranges - 1))
        head = full.head(prefix.num_rows)
        assert prefix.to_pylist() == head.to_pylist()
        assert prefix.column("age").tobytes() == head.column("age").tobytes()
        # The whole n-row draw was taken: the stream is where it would be.
        after = np.random.default_rng(11)
        after.normal(size=(n, model._latent_dim))
        assert prefix_rng.random() == after.random()

    def test_ranges_cover_every_latent_row_once_in_order(self, model, monkeypatch):
        decoded = []
        decode = MSWG._decode_latents
        monkeypatch.setattr(
            MSWG,
            "_decode_latents",
            lambda self, latents: decoded.append(latents.copy()) or decode(self, latents),
        )
        rng = np.random.default_rng(5)
        model.generate(POPULATION, rng=rng, until=lambda part: False)
        expected_rng = np.random.default_rng(5)
        expected = expected_rng.normal(size=(POPULATION, model._latent_dim))
        assert [block.shape[0] for block in decoded] == [1024, 2048, 1928]
        assert np.concatenate(decoded).tobytes() == expected.tobytes()
        assert rng.random() == expected_rng.random()


class TestPrefixLimit:
    SCHEMA = Schema.of(country=DType.TEXT, age=DType.INT)

    @pytest.mark.parametrize(
        "sql, limit",
        [
            ("SELECT country FROM P WHERE age > 1 AND country = 'UK' LIMIT 7", 7),
            ("SELECT * FROM P LIMIT 0", 0),
            ("SELECT age + 1 AS a FROM P LIMIT 3", 3),
            ("SELECT country FROM P", None),
            ("SELECT DISTINCT country FROM P LIMIT 3", None),
            ("SELECT country, age FROM P ORDER BY age LIMIT 3", None),
        ],
    )
    def test_only_filter_project_limit_plans_stop_early(self, sql, limit):
        plan = compile_select(parse_statement(sql), self.SCHEMA, weighted=False)
        assert prefix_limit(plan) == limit
