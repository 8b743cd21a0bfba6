"""Stream ≡ reference loop for OPEN aggregates.

The chunked repetition stream (``generate_batch_streams`` per chunk,
composite ``(rep, group)`` evaluation, key-row merge) must be bit-identical
to the per-repetition reference loop (``_evaluate_open_loop``: one
``generate`` + one ``execute_plan`` per repetition, then
``combine_open_answers``) for every generator, every key type, with and
without WHERE / view predicates / ORDER BY, at every chunk size —
in-process and over the TCP server.  Both share the per-repetition
RNG-stream contract: repetition ``r`` draws from stream ``r`` of
``repetition_streams(rng, R)``.

The engine only takes the loop for aggregates with a LIMIT
(``runs_per_repetition``); the ``reference`` fixture patches that choice
to route any query through it.
"""

import numpy as np
import pytest

from repro import MosaicDB
from repro.catalog.metadata import Marginal
from repro.client import Connection
from repro.engine import open_world
from repro.engine.open_world import (
    CONFIDENCE_Z,
    BayesNetGenerator,
    IPFSynthesizer,
    MswgGenerator,
    OpenQueryConfig,
)
from repro.errors import GenerativeModelError
from repro.generative.mswg import MswgConfig
from repro.generative.streams import (
    REPETITION_COLUMN,
    repetition_streams,
    with_repetition_ids,
)
from repro.server.server import MosaicServer

REPETITIONS = 6
GEN_ROWS = 600


def tiny_mswg():
    return MswgGenerator(
        MswgConfig(
            epochs=2,
            hidden_layers=2,
            hidden_units=16,
            num_projections=8,
            batch_size=128,
            latent_dim=2,
        )
    )


class GenerateOnly:
    """A generator with nothing but the protocol's ``fit``/``generate``."""

    name = "generate-only"

    def __init__(self):
        self._inner = IPFSynthesizer()

    def fit(self, sample, marginals, sample_weights=None, categorical_columns=None):
        self._inner.fit(sample, marginals, sample_weights, categorical_columns)
        return self

    def generate(self, n, rng=None):
        return self._inner.generate(n, rng=rng)


GENERATOR_FACTORIES = {
    "ipf-synth": IPFSynthesizer,
    "bayesnet": BayesNetGenerator,
    "mswg": tiny_mswg,
    "generate-only": GenerateOnly,
}

MARGINALS = {
    "country": Marginal(["country"], {("UK",): 700, ("FR",): 250, ("DE",): 50}),
    "email": Marginal(["email"], {("Yahoo",): 600, ("AOL",): 400}),
    "age": Marginal(["age"], {(20,): 500, (30,): 300, (40,): 200}),
}
SAMPLE_ROWS = (
    [("UK", "Yahoo", 20)] * 40
    + [("UK", "AOL", 30)] * 10
    + [("FR", "Yahoo", 30)] * 25
    + [("FR", "AOL", 40)] * 5
    + [("DE", "Yahoo", 40)] * 5
)


def build_db(factory, seed: int = 0, **open_kwargs) -> MosaicDB:
    """Migrants-style database: TEXT and INT keys, skewed sample, a view."""
    db = MosaicDB(
        seed=seed,
        open_config=OpenQueryConfig(
            generator_factory=factory,
            repetitions=REPETITIONS,
            rows_per_generation=GEN_ROWS,
            **open_kwargs,
        ),
    )
    db.execute_script(
        """
        CREATE GLOBAL POPULATION People (country TEXT, email TEXT, age INT);
        CREATE POPULATION UkPeople AS
            (SELECT * FROM People WHERE country = 'UK');
        CREATE SAMPLE S AS (SELECT * FROM People);
        """
    )
    for name, marginal in MARGINALS.items():
        db.register_marginal(f"M_{name}", "People", marginal)
    db.ingest_rows("S", SAMPLE_ROWS)
    return db


def to_the_cap(chunk: int) -> dict:
    """Config for a stream that runs ``chunk`` repetitions at a time and
    cannot stop before the cap."""
    return dict(tolerance=1e-15, min_repetitions=REPETITIONS, chunk_repetitions=chunk)


@pytest.fixture
def reference(monkeypatch):
    """``reference(session, sql)``: the answer of the per-repetition loop."""

    def run(session, sql):
        with monkeypatch.context() as patch:
            patch.setattr(open_world, "runs_per_repetition", lambda query: True)
            return session.execute(sql)

    return run


def assert_identical(result, expected):
    assert result.relation.schema == expected.relation.schema
    assert result.to_pylist() == expected.to_pylist()
    for name in expected.columns:
        mine, theirs = result.column(name), expected.column(name)
        if mine.dtype != object:
            assert mine.tobytes() == theirs.tobytes(), name  # bit-for-bit


QUERY_SHAPES = {
    "text_key": "SELECT OPEN country, COUNT(*) AS n, AVG(age) AS a "
    "FROM People GROUP BY country",
    "numeric_key": "SELECT OPEN age, COUNT(*) AS n FROM People GROUP BY age",
    "two_keys": "SELECT OPEN country, age, COUNT(*) AS n, MAX(age) AS oldest "
    "FROM People GROUP BY country, age",
    "where": "SELECT OPEN country, SUM(age) AS s FROM People "
    "WHERE email != 'AOL' GROUP BY country",
    "view_predicate": "SELECT OPEN country, email, COUNT(*) AS n "
    "FROM UkPeople GROUP BY country, email",
    "order_by": "SELECT OPEN country, COUNT(*) AS n FROM People "
    "GROUP BY country ORDER BY n DESC",
}


class TestStreamEqualsReferenceLoop:
    @pytest.mark.parametrize("chunk", [None, 1, 3, REPETITIONS])
    @pytest.mark.parametrize("shape", list(QUERY_SHAPES))
    @pytest.mark.parametrize("name", list(GENERATOR_FACTORIES))
    def test_engine_answers_bit_identical(self, name, shape, chunk, reference):
        factory, sql = GENERATOR_FACTORIES[name], QUERY_SHAPES[shape]
        expected = reference(build_db(factory), sql)
        assert not expected.has_note("composite (rep, group) codes")
        config = {} if chunk is None else to_the_cap(chunk)
        result = build_db(factory, **config).execute(sql)
        assert result.has_note("composite (rep, group) codes")
        assert result.repetitions_used == REPETITIONS
        assert expected.num_rows > 0
        assert_identical(result, expected)

    @pytest.mark.parametrize("name", list(GENERATOR_FACTORIES))
    def test_hidden_group_key_returns_one_row_per_group(self, name):
        """GROUP BY a column the SELECT drops: the stream merges on the
        real group keys, so the answer is the full-key answer with the
        hidden column projected away — as CLOSED and SEMI-OPEN do."""
        factory = GENERATOR_FACTORIES[name]
        hidden = build_db(factory).execute(
            "SELECT OPEN country, COUNT(*) AS n FROM People GROUP BY country, email"
        )
        full = build_db(factory).execute(
            "SELECT OPEN country, email, COUNT(*) AS n "
            "FROM People GROUP BY country, email"
        )
        assert hidden.columns == ("country", "n")
        assert hidden.num_rows == full.num_rows > 0
        assert list(hidden.column("country")) == list(full.column("country"))
        assert hidden.column("n").tobytes() == full.column("n").tobytes()

    def test_limit_queries_take_the_per_repetition_path(self, reference):
        # A per-repetition LIMIT truncates each answer *before* the group
        # intersection; composite cells cannot express that, so the engine
        # picks the loop from the query.
        sql = (
            "SELECT OPEN country, COUNT(*) AS n FROM People "
            "GROUP BY country ORDER BY country LIMIT 2"
        )
        result = build_db(IPFSynthesizer).execute(sql)
        assert not result.has_note("composite (rep, group) codes")
        assert result.num_rows == 2
        assert_identical(result, reference(build_db(IPFSynthesizer), sql))

    def test_non_aggregate_open_materialises_one_sample(self):
        result = build_db(IPFSynthesizer).execute(
            "SELECT OPEN country, email FROM People"
        )
        assert result.has_note("non-aggregate OPEN query")
        assert result.has_note("OPEN: 1 generated sample(s) from ipf-synth")
        assert result.repetitions_used == 1

    def test_leading_note_counts_the_repetitions_used(self):
        sql = QUERY_SHAPES["text_key"]
        fixed = build_db(IPFSynthesizer).execute(sql)
        assert fixed.has_note(f"OPEN: {REPETITIONS} generated sample(s) from ipf-synth")
        early = build_db(IPFSynthesizer, tolerance=0.9, max_repetitions=20).execute(sql)
        assert early.repetitions_used < REPETITIONS
        assert early.has_note(
            f"OPEN: {early.repetitions_used} generated sample(s) from ipf-synth"
        )


class TestConfidenceColumns:
    def test_welford_matches_direct_spread_of_the_reference_answers(
        self, monkeypatch, reference
    ):
        """``report_ci`` columns (running Welford moments) against
        ``np.std(ddof=1)`` over the loop's per-repetition answers."""
        sql = (
            "SELECT OPEN country, email, COUNT(*) AS n "
            "FROM People GROUP BY country, email"
        )
        answers = []
        combine = open_world.combine_open_answers
        monkeypatch.setattr(
            open_world,
            "combine_open_answers",
            lambda per_repetition, keys: (
                answers.extend(per_repetition),
                combine(per_repetition, keys),
            )[1],
        )
        expected = reference(build_db(IPFSynthesizer), sql)
        assert len(answers) == REPETITIONS

        result = build_db(IPFSynthesizer, report_ci=True).execute(sql)
        assert result.columns == ("country", "email", "n", "n__std__", "n__ci__")
        keys = list(zip(result.column("country"), result.column("email")))
        assert keys == list(zip(expected.column("country"), expected.column("email")))
        per_repetition = np.array(
            [
                [
                    dict(zip(zip(a.column("country"), a.column("email")), a.column("n")))[key]
                    for key in keys
                ]
                for a in answers
            ]
        )
        std = np.std(per_repetition, axis=0, ddof=1)
        np.testing.assert_allclose(result.column("n__std__"), std, rtol=1e-12)
        np.testing.assert_allclose(
            result.column("n__ci__"),
            CONFIDENCE_Z * std / np.sqrt(REPETITIONS),
            rtol=1e-12,
        )
        assert result.column("n").tobytes() == expected.column("n").tobytes()


def fitted(factory):
    generator = factory()
    generator.fit(build_db(factory).engine.catalog.sample("S").relation, list(MARGINALS.values()))
    return generator


class TestGenerateBatchContract:
    """generate_batch(n, R, rng) row-for-row equals R serial generate calls."""

    @pytest.mark.parametrize("name", ["ipf-synth", "bayesnet", "mswg"])
    def test_batch_rows_bit_identical_to_serial_streams(self, name):
        generator = fitted(GENERATOR_FACTORIES[name])
        n = 300
        serial = [
            generator.generate(n, rng=stream)
            for stream in repetition_streams(np.random.default_rng(7), REPETITIONS)
        ]
        batch = generator.generate_batch(
            n, REPETITIONS, rng=np.random.default_rng(7)
        )
        rep_ids = np.asarray(batch.column(REPETITION_COLUMN))
        assert np.array_equal(
            rep_ids, np.repeat(np.arange(REPETITIONS), n)
        )  # dense, repetition-major
        data = batch.drop_column(REPETITION_COLUMN)
        for repetition, expected in enumerate(serial):
            piece = data.filter(rep_ids == repetition)
            assert piece.schema == expected.schema
            for column in expected.column_names:
                assert np.array_equal(
                    piece.column(column), expected.column(column)
                ), f"{name}: repetition {repetition}, column {column}"

    def test_rep_column_validates_divisibility(self):
        relation = build_db(IPFSynthesizer).engine.catalog.sample("S").relation
        with pytest.raises(GenerativeModelError, match="divisible"):
            with_repetition_ids(relation, 7)  # 85 rows % 7 != 0


class TestStreamOverTheWire:
    def test_wire_results_match_the_reference_loop_in_process(self, reference):
        """A server session (the stream) returns exactly what the
        in-process reference loop returns for the matching spawn index."""
        sql = QUERY_SHAPES["two_keys"]
        expected = reference(build_db(IPFSynthesizer).connect(), sql)

        server_db = build_db(IPFSynthesizer)
        server = MosaicServer(
            server_db.engine, port=0, session_config=server_db.session.config
        ).start_in_thread()
        try:
            with Connection("127.0.0.1", server.port) as conn:
                received = conn.execute(sql)
        finally:
            server.stop_in_thread()

        assert received.columns == expected.columns
        assert received.num_rows == expected.num_rows
        for name in expected.columns:
            mine, theirs = received.column(name), expected.column(name)
            if mine.dtype == object:
                assert list(mine) == list(theirs)
            else:
                assert mine.tobytes() == theirs.tobytes()  # bit-for-bit
