"""Tests for the planner's sample choice and the multiple-samples extension."""

import numpy as np
import pytest

from repro import MosaicDB
from repro.catalog.metadata import Marginal
from repro.engine.planner import choose_sample
from repro.errors import VisibilityError


def make_db(combine_samples=False):
    db = MosaicDB(seed=0, combine_samples=combine_samples)
    db.execute("CREATE GLOBAL POPULATION P (region TEXT, v FLOAT)")
    db.register_marginal(
        "P_M1", "P", Marginal(["region"], {("north",): 600, ("south",): 400})
    )
    return db


class TestChooseSample:
    def test_largest_sample_wins(self):
        db = make_db()
        db.execute("CREATE SAMPLE Small AS (SELECT * FROM P)")
        db.execute("CREATE SAMPLE Big AS (SELECT * FROM P)")
        db.ingest_rows("Small", [("north", 1.0)] * 5)
        db.ingest_rows("Big", [("north", 1.0)] * 50)
        source = choose_sample(db.catalog, db.catalog.population("P"))
        assert source.sample.name == "Big"
        assert not source.combined

    def test_no_samples_raises(self):
        db = make_db()
        with pytest.raises(VisibilityError, match="no sample"):
            choose_sample(db.catalog, db.catalog.population("P"))

    def test_derived_population_uses_gp_samples(self):
        db = make_db()
        db.execute("CREATE SAMPLE S AS (SELECT * FROM P)")
        db.ingest_rows("S", [("north", 1.0)] * 5)
        db.execute(
            "CREATE POPULATION North AS (SELECT * FROM P WHERE region = 'north')"
        )
        source = choose_sample(db.catalog, db.catalog.population("North"))
        assert source.sample.name == "S"


class TestCombineSamples:
    """Sec. 7 'Multiple Samples': union compatible samples, then reweight."""

    def test_union_combines_rows_and_weights(self):
        db = make_db(combine_samples=True)
        db.execute("CREATE SAMPLE A AS (SELECT * FROM P)")
        db.execute("CREATE SAMPLE B AS (SELECT * FROM P)")
        db.ingest_rows("A", [("north", 10.0)] * 30)
        db.ingest_rows("B", [("south", 20.0)] * 10)
        source = choose_sample(
            db.catalog, db.catalog.population("P"), combine_samples=True
        )
        assert source.combined
        assert source.sample.num_rows == 40
        assert "+" in source.sample.name

    def test_combined_semi_open_uses_all_regions(self):
        """A north-only and a south-only sample jointly cover the marginal."""
        db = make_db(combine_samples=True)
        db.execute("CREATE SAMPLE A AS (SELECT * FROM P)")
        db.execute("CREATE SAMPLE B AS (SELECT * FROM P)")
        db.ingest_rows("A", [("north", 10.0)] * 30)
        db.ingest_rows("B", [("south", 20.0)] * 10)
        result = db.execute(
            "SELECT SEMI-OPEN region, COUNT(*) AS n FROM P GROUP BY region"
        )
        rows = {r["region"]: r["n"] for r in result.to_pylist()}
        assert rows["north"] == pytest.approx(600)
        assert rows["south"] == pytest.approx(400)

    def test_single_sample_alone_misses_a_region(self):
        """Without combining, the biggest sample misses the south entirely."""
        db = make_db(combine_samples=False)
        db.execute("CREATE SAMPLE A AS (SELECT * FROM P)")
        db.execute("CREATE SAMPLE B AS (SELECT * FROM P)")
        db.ingest_rows("A", [("north", 10.0)] * 30)
        db.ingest_rows("B", [("south", 20.0)] * 10)
        result = db.execute(
            "SELECT SEMI-OPEN region, COUNT(*) AS n FROM P GROUP BY region"
        )
        rows = {r["region"]: r["n"] for r in result.to_pylist()}
        assert "south" not in rows


class TestQueryResult:
    def test_scalar_and_iteration(self):
        db = make_db()
        db.execute("CREATE SAMPLE S AS (SELECT * FROM P)")
        db.ingest_rows("S", [("north", 1.0), ("south", 2.0)])
        result = db.execute("SELECT COUNT(*) FROM S")
        assert result.scalar() == 2
        assert len(result) == 1
        assert list(result) == [(2,)]

    def test_scalar_on_multi_cell_raises(self):
        db = make_db()
        db.execute("CREATE SAMPLE S AS (SELECT * FROM P)")
        db.ingest_rows("S", [("north", 1.0), ("south", 2.0)])
        result = db.execute("SELECT * FROM S")
        with pytest.raises(ValueError, match="1x1"):
            result.scalar()

    def test_pretty_truncates(self):
        db = make_db()
        db.execute("CREATE SAMPLE S AS (SELECT * FROM P)")
        db.ingest_rows("S", [("north", float(i)) for i in range(30)])
        text = db.execute("SELECT * FROM S").pretty(max_rows=5)
        assert "more rows" in text


class TestVisibilityEnum:
    def test_parse_variants(self):
        from repro.core.visibility import Visibility

        assert Visibility.parse("closed") is Visibility.CLOSED
        assert Visibility.parse("SEMI-OPEN") is Visibility.SEMI_OPEN
        assert Visibility.parse("semi_open") is Visibility.SEMI_OPEN
        assert Visibility.parse("Open") is Visibility.OPEN

    def test_parse_unknown(self):
        from repro.core.visibility import Visibility
        from repro.errors import VisibilityError

        with pytest.raises(VisibilityError):
            Visibility.parse("ajar")
