"""Integration tests: the full SQL surface through MosaicDB.

Covers the paper's Sec. 2 motivating example end to end: DDL, ingestion,
metadata, and CLOSED / SEMI-OPEN / OPEN queries over the migrants scenario.
"""

import math
import warnings

import numpy as np
import pytest

from repro import MosaicDB, Visibility
from repro.engine.open_world import BayesNetGenerator, IPFSynthesizer, OpenQueryConfig
from repro.errors import (
    CatalogError,
    SqlCompileError,
    SqlSyntaxError,
    TypeMismatchError,
    UnknownRelationError,
    VisibilityError,
)


@pytest.fixture
def db():
    """The motivating example: Eurostat ground truth + a Yahoo-only sample."""
    database = MosaicDB(
        seed=0,
        open_config=OpenQueryConfig(
            generator_factory=IPFSynthesizer, repetitions=5
        ),
    )
    database.execute_script(
        """
        CREATE TEMPORARY TABLE Eurostat (kind TEXT, value TEXT, reported_count INT);
        INSERT INTO Eurostat VALUES
            ('country', 'UK', 20020), ('country', 'FR', 9010),
            ('email', 'Yahoo', 29000), ('email', 'AOL', 30);
        CREATE GLOBAL POPULATION EuropeMigrants (country TEXT, email TEXT);
        CREATE SAMPLE YahooMigrants AS
            (SELECT * FROM EuropeMigrants WHERE email = 'Yahoo');
        """
    )
    # Metadata via the projection form, with explicit FOR binding; the
    # SELECT aliases rename the staging column to the population attribute.
    database.execute(
        "CREATE METADATA EuropeMigrants_M1 FOR EuropeMigrants AS "
        "(SELECT value AS country, reported_count FROM Eurostat WHERE kind = 'country')"
    )
    database.execute(
        "CREATE METADATA EuropeMigrants_M2 FOR EuropeMigrants AS "
        "(SELECT value AS email, reported_count FROM Eurostat WHERE kind = 'email')"
    )
    return database


def build_migrants_db(**db_kwargs):
    """Programmatic variant with correctly named marginal attributes."""
    from repro.catalog.metadata import Marginal

    database = MosaicDB(**db_kwargs)
    database.execute_script(
        """
        CREATE GLOBAL POPULATION EuropeMigrants (country TEXT, email TEXT);
        CREATE SAMPLE YahooMigrants AS
            (SELECT * FROM EuropeMigrants WHERE email = 'Yahoo');
        """
    )
    database.register_marginal(
        "EuropeMigrants_M1",
        "EuropeMigrants",
        Marginal(["country"], {("UK",): 20020, ("FR",): 9010}),
    )
    database.register_marginal(
        "EuropeMigrants_M2",
        "EuropeMigrants",
        Marginal(["email"], {("Yahoo",): 29000, ("AOL",): 30}),
    )
    # Biased ingestion: UK over-represented relative to the marginal.
    rows = [("UK", "Yahoo")] * 800 + [("FR", "Yahoo")] * 200
    database.ingest_rows("YahooMigrants", rows)
    return database


class TestDdl:
    def test_create_and_insert_auxiliary(self, db):
        result = db.execute("SELECT * FROM Eurostat")
        assert result.num_rows == 4

    def test_create_table_requires_columns(self):
        with pytest.raises(SqlCompileError, match="column definitions"):
            MosaicDB().execute("CREATE TABLE t")

    def test_global_population_requires_columns(self):
        with pytest.raises(SqlCompileError, match="GLOBAL POPULATION"):
            MosaicDB().execute("CREATE GLOBAL POPULATION P")

    def test_insert_into_population_rejected(self, db):
        with pytest.raises(CatalogError, match="never store tuples"):
            db.execute("INSERT INTO EuropeMigrants VALUES ('UK', 'Yahoo')")

    def test_derived_population(self, db):
        db.execute(
            "CREATE POPULATION UkMigrants AS "
            "(SELECT * FROM EuropeMigrants WHERE country = 'UK')"
        )
        population = db.catalog.population("UkMigrants")
        assert population.source_population == "EuropeMigrants"
        assert population.defining_predicate is not None

    def test_drop_sample(self, db):
        db.execute("DROP SAMPLE YahooMigrants")
        with pytest.raises(UnknownRelationError):
            db.catalog.sample("YahooMigrants")

    def test_status_results_have_messages(self, db):
        result = db.execute("CREATE TABLE Extra (x INT)")
        assert "created table" in result.notes[0]


class TestSampleIngestion:
    def test_ingest_rows_sets_unit_weights(self, db):
        db.ingest_rows("YahooMigrants", [("UK", "Yahoo"), ("FR", "Yahoo")])
        sample = db.catalog.sample("YahooMigrants")
        assert sample.num_rows == 2
        assert sample.weights.tolist() == [1.0, 1.0]

    def test_sql_insert_into_sample(self, db):
        db.execute("INSERT INTO YahooMigrants VALUES ('UK', 'Yahoo'), ('FR', 'Yahoo')")
        assert db.catalog.sample("YahooMigrants").num_rows == 2

    def test_insert_out_of_int_range_names_the_range_without_warning(self, db):
        db.execute("CREATE TABLE Counts (n INT)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeMismatchError, match="outside the INT range"):
                db.execute("INSERT INTO Counts VALUES (99999999999999999999)")
        assert db.execute("SELECT * FROM Counts").num_rows == 0

    def test_insert_int_beside_a_float_keeps_every_bit(self, db):
        db.execute("CREATE TABLE Counts (n INT)")
        db.execute("INSERT INTO Counts VALUES (9007199254740993), (2.0)")
        values = db.execute("SELECT * FROM Counts").column("n").tolist()
        assert values == [9007199254740993, 2]

    @pytest.mark.parametrize(
        "sql, column",
        [
            ("INSERT INTO Counts VALUES (²)", 28),
            ("SELECT CLOSED n FROM Counts WHERE n = ²", 39),
        ],
    )
    def test_non_decimal_digit_is_a_syntax_error(self, db, sql, column):
        db.execute("CREATE TABLE Counts (n INT)")
        with pytest.raises(SqlSyntaxError, match="unexpected character '²'") as excinfo:
            db.execute(sql)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("3.5", "non-integral value for INT column: 3.5"),
            ("9223372036854775808", "outside the INT range"),
            ("1e20", "outside the INT range"),
            ("'x'", "cannot coerce values to INT"),
        ],
        ids=["fractional", "int64_max_plus_1", "float_beyond_range", "text"],
    )
    def test_insert_rejects_a_literal_an_int_cannot_hold(self, db, literal, message):
        db.execute("CREATE TABLE Counts (n INT)")
        with pytest.raises(TypeMismatchError, match=message):
            db.execute(f"INSERT INTO Counts VALUES (1), ({literal})")
        assert db.execute("SELECT * FROM Counts").num_rows == 0  # nothing half-inserted

    @pytest.mark.parametrize(
        "column_type, literal, stored",
        [
            ("INT", "3.0", 3),
            ("INT", "-9223372036854775808", -(2**63)),
            ("TEXT", "12", "12"),
        ],
        ids=["integral_float", "int64_min", "number_into_text"],
    )
    def test_insert_coerces_a_literal_to_the_column_type(
        self, db, column_type, literal, stored
    ):
        db.execute(f"CREATE TABLE Values1 (v {column_type})")
        db.execute(f"INSERT INTO Values1 VALUES ({literal})")
        assert db.execute("SELECT * FROM Values1").column("v").tolist() == [stored]

    def test_other_script_decimal_digits_still_parse(self, db):
        db.execute("CREATE TABLE Counts (n INT)")
        db.execute("INSERT INTO Counts VALUES (٣), (-٤٢)")
        assert db.execute("SELECT * FROM Counts").column("n").tolist() == [3, -42]

    def test_update_weights(self, db):
        db.ingest_rows("YahooMigrants", [("UK", "Yahoo"), ("FR", "Yahoo")])
        db.execute("UPDATE SAMPLE YahooMigrants SET WEIGHT = 5 WHERE country = 'UK'")
        assert db.catalog.sample("YahooMigrants").weights.tolist() == [5.0, 1.0]

    def test_update_weights_expression(self, db):
        db.ingest_rows("YahooMigrants", [("UK", "Yahoo"), ("FR", "Yahoo")])
        db.execute("UPDATE SAMPLE YahooMigrants SET WEIGHT = weight * 3")
        assert db.catalog.sample("YahooMigrants").weights.tolist() == [3.0, 3.0]

    def test_division_by_zero_is_silent(self, db):
        db.ingest_rows("YahooMigrants", [("UK", "Yahoo"), ("FR", "Yahoo")])
        db.execute("CREATE TABLE Ratios (x INT)")
        db.execute("INSERT INTO Ratios VALUES (1), (-2), (0)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CatalogError, match="finite"):
                db.execute("UPDATE SAMPLE YahooMigrants SET WEIGHT = 1/0")
            quotients = db.execute("SELECT x / 0 AS q FROM Ratios").column("q")
        assert db.catalog.sample("YahooMigrants").weights.tolist() == [1.0, 1.0]
        assert quotients[:2].tolist() == [math.inf, -math.inf]
        assert math.isnan(quotients[2])
        # Integer x % 0 has no IEEE answer: numpy reads 0, and its warning
        # is the only sign of that, so it stays.
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            remainders = db.execute("SELECT x % 0 AS r FROM Ratios").column("r")
        assert remainders.tolist() == [0, 0, 0]


class TestClosedQueries:
    def test_closed_group_by(self):
        database = build_migrants_db()
        result = database.execute(
            "SELECT CLOSED country, email, COUNT(*) AS n "
            "FROM EuropeMigrants GROUP BY country, email"
        )
        rows = {(r["country"], r["email"]): r["n"] for r in result.to_pylist()}
        # Raw sample counts, no debiasing: 800 UK / 200 FR, Yahoo only.
        assert rows[("UK", "Yahoo")] == 800
        assert rows[("FR", "Yahoo")] == 200
        assert result.visibility == "CLOSED"

    def test_query_sample_directly(self):
        database = build_migrants_db()
        result = database.execute("SELECT COUNT(*) FROM YahooMigrants")
        assert result.scalar() == 1000


class TestSemiOpenQueries:
    def test_paper_semi_open_answer_shape(self):
        """Sec. 2: SEMI-OPEN reweights but cannot invent AOL tuples."""
        database = build_migrants_db()
        result = database.execute(
            "SELECT SEMI-OPEN country, email, COUNT(*) AS n "
            "FROM EuropeMigrants GROUP BY country, email"
        )
        rows = {(r["country"], r["email"]): r["n"] for r in result.to_pylist()}
        assert set(rows) == {("UK", "Yahoo"), ("FR", "Yahoo")}  # no AOL: FN
        # Counts now match the country marginal (~20020 / ~9010 split over
        # the Yahoo-only sample; email marginal pulls the total to 29000).
        assert rows[("UK", "Yahoo")] == pytest.approx(20013, rel=0.01)
        assert rows[("FR", "Yahoo")] == pytest.approx(9007, rel=0.01)

    def test_semi_open_is_default_visibility(self):
        database = build_migrants_db()
        result = database.execute(
            "SELECT country, COUNT(*) AS n FROM EuropeMigrants GROUP BY country"
        )
        assert result.visibility == "SEMI-OPEN"

    def test_semi_open_without_metadata_or_mechanism_raises(self):
        database = MosaicDB()
        database.execute("CREATE GLOBAL POPULATION P (x TEXT)")
        database.execute("CREATE SAMPLE S AS (SELECT * FROM P)")
        database.ingest_rows("S", [("a",), ("b",)])
        with pytest.raises(VisibilityError, match="SEMI-OPEN"):
            database.execute("SELECT SEMI-OPEN x, COUNT(*) FROM P GROUP BY x")

    def test_known_uniform_mechanism_used(self):
        database = MosaicDB()
        database.execute("CREATE GLOBAL POPULATION P (x TEXT)")
        database.execute(
            "CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 10)"
        )
        database.ingest_rows("S", [("a",)] * 30 + [("b",)] * 20)
        result = database.execute("SELECT SEMI-OPEN x, COUNT(*) AS n FROM P GROUP BY x")
        rows = {r["x"]: r["n"] for r in result.to_pylist()}
        # Inverse probability: each tuple counts 10x.
        assert rows["a"] == pytest.approx(300.0)
        assert rows["b"] == pytest.approx(200.0)
        assert any("inverse-probability" in note for note in result.notes)

    def test_no_sample_raises(self):
        database = MosaicDB()
        database.execute("CREATE GLOBAL POPULATION P (x TEXT)")
        with pytest.raises(VisibilityError, match="no sample"):
            database.execute("SELECT SEMI-OPEN COUNT(*) FROM P")


class TestOpenQueries:
    def test_paper_open_answer_generates_missing_tuples(self):
        """Sec. 2: OPEN can produce the (UK, AOL, 20) style rows.

        AOL is a light hitter (30 of 29,030 tuples), so each repetition
        must generate at population scale for AOL groups to survive the
        all-repetitions intersection.
        """
        database = build_migrants_db(
            open_config=OpenQueryConfig(
                generator_factory=IPFSynthesizer,
                repetitions=5,
                rows_per_generation=30_000,
            )
        )
        result = database.execute(
            "SELECT OPEN country, email, COUNT(*) AS n "
            "FROM EuropeMigrants GROUP BY country, email"
        )
        rows = {(r["country"], r["email"]): r["n"] for r in result.to_pylist()}
        assert ("UK", "AOL") in rows or ("FR", "AOL") in rows  # new tuples!
        total = sum(rows.values())
        assert total == pytest.approx(29030, rel=0.02)
        assert result.visibility == "OPEN"

    def test_open_without_metadata_raises(self):
        database = MosaicDB()
        database.execute("CREATE GLOBAL POPULATION P (x TEXT)")
        database.execute("CREATE SAMPLE S AS (SELECT * FROM P)")
        database.ingest_rows("S", [("a",)])
        with pytest.raises(VisibilityError, match="OPEN queries need marginals"):
            database.execute("SELECT OPEN x, COUNT(*) FROM P GROUP BY x")

    def test_open_on_sample_rejected(self):
        database = build_migrants_db()
        with pytest.raises(VisibilityError, match="populations"):
            database.execute("SELECT OPEN COUNT(*) FROM YahooMigrants")

    def test_generator_cached_across_queries(self):
        database = build_migrants_db(
            open_config=OpenQueryConfig(generator_factory=IPFSynthesizer, repetitions=2)
        )
        first = database.execute(
            "SELECT OPEN country, COUNT(*) FROM EuropeMigrants GROUP BY country"
        )
        assert not first.has_note("generator cache hit")
        second = database.execute(
            "SELECT OPEN email, COUNT(*) FROM EuropeMigrants GROUP BY email"
        )
        assert second.has_note("generator cache hit")

    def test_ingestion_invalidates_generator_cache(self):
        database = build_migrants_db(
            open_config=OpenQueryConfig(generator_factory=IPFSynthesizer, repetitions=2)
        )
        sql = "SELECT OPEN country, COUNT(*) FROM EuropeMigrants GROUP BY country"
        database.execute(sql)
        database.ingest_rows("YahooMigrants", [("UK", "Yahoo")])
        # The stale entry is superseded by version stamp: the next query
        # refits instead of serving the pre-ingest generator.
        result = database.execute(sql)
        assert not result.has_note("generator cache hit")
        again = database.execute(sql)
        assert again.has_note("generator cache hit")


    def test_set_open_generator_swaps_the_factory(self):
        database = build_migrants_db(
            open_config=OpenQueryConfig(generator_factory=IPFSynthesizer, repetitions=2)
        )
        sql = "SELECT OPEN country, COUNT(*) FROM EuropeMigrants GROUP BY country"
        assert database.execute(sql).has_note("generated sample(s) from ipf-synth")
        database.set_open_generator(BayesNetGenerator)
        swapped = database.execute(sql)
        assert swapped.has_note("generated sample(s) from bayesnet")
        assert not swapped.has_note("generator cache hit")

    def test_fitted_generators_are_cached_per_factory(self):
        database = build_migrants_db(
            open_config=OpenQueryConfig(generator_factory=IPFSynthesizer, repetitions=2)
        )
        sql = "SELECT OPEN country, COUNT(*) FROM EuropeMigrants GROUP BY country"
        database.execute(sql)
        database.set_open_generator(BayesNetGenerator)
        database.execute(sql)
        database.set_open_generator(IPFSynthesizer)
        back = database.execute(sql)
        # Swapping back finds the first fit still warm: no refit.
        assert back.has_note("generator cache hit")
        assert back.has_note("generated sample(s) from ipf-synth")

class TestVisibilityTradeoffTable:
    """The Sec. 3.3 table: FN/FP behaviour per visibility level."""

    def test_closed_and_semi_open_have_no_false_positives(self):
        database = build_migrants_db()
        for visibility in ("CLOSED", "SEMI-OPEN"):
            result = database.execute(
                f"SELECT {visibility} country, email, COUNT(*) AS n "
                "FROM EuropeMigrants GROUP BY country, email"
            )
            emails = {r["email"] for r in result.to_pylist()}
            assert emails == {"Yahoo"}  # nothing invented

    @pytest.mark.parametrize(
        "visibility, reweights, generates",
        [("CLOSED", False, False), ("SEMI-OPEN", True, False), ("OPEN", True, True)],
    )
    def test_what_each_level_may_do(self, visibility, reweights, generates):
        """CLOSED answers from raw tuples; SEMI-OPEN may reweight them;
        only OPEN may generate tuples the sample lacks."""
        database = build_migrants_db(
            open_config=OpenQueryConfig(generator_factory=IPFSynthesizer, repetitions=2)
        )
        result = database.execute(
            f"SELECT {visibility} country, COUNT(*) AS n "
            "FROM EuropeMigrants GROUP BY country"
        )
        assert result.visibility == visibility
        raw = {"UK": 800, "FR": 200}
        counts = {row["country"]: row["n"] for row in result.to_pylist()}
        assert (counts != raw) is reweights
        assert result.has_note("with no reweighting") is not reweights
        assert result.has_note("generated sample(s)") is generates

    def test_open_reduces_false_negatives(self):
        database = build_migrants_db(
            open_config=OpenQueryConfig(
                generator_factory=IPFSynthesizer,
                repetitions=5,
                rows_per_generation=30_000,
            )
        )
        closed = database.execute(
            "SELECT CLOSED country, email, COUNT(*) FROM EuropeMigrants "
            "GROUP BY country, email"
        )
        opened = database.execute(
            "SELECT OPEN country, email, COUNT(*) FROM EuropeMigrants "
            "GROUP BY country, email"
        )
        assert opened.num_rows > closed.num_rows


class TestAuxiliaryVisibility:
    def test_visibility_on_auxiliary_rejected(self, db):
        with pytest.raises(VisibilityError, match="auxiliary"):
            db.execute("SELECT SEMI-OPEN * FROM Eurostat")
