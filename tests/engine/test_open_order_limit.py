"""OPEN aggregate ORDER BY/LIMIT ≡ the first rows of the unlimited answer.

ORDER BY and LIMIT describe the combined population answer (Sec. 5.3: the
groups present in every repetition, aggregates averaged), so they apply
once, after the combine.  ``LIMIT k`` must therefore return min(k, G) rows
— G being the number of groups in the same statement's answer without the
LIMIT — and those rows must be the unlimited answer's first k, to the last
bit.  A LIMIT applied inside each repetition before the intersection fails
this: a group cut from any one repetition's top k drops out of the answer.

Each statement runs on a fresh engine with the same seed, so the LIMIT and
the unlimited statement draw the same repetition streams; sessions from one
``db.connect()`` would draw different ones.  Every case runs in-process,
over TCP and through a 2-shard fleet (the routes of
``test_open_limit_pushdown.py``).
"""

import numpy as np
import pytest

from repro.engine.open_world import BayesNetGenerator, IPFSynthesizer

from test_open_limit_pushdown import ROUTES
from test_open_stream import GenerateOnly, tiny_mswg

GENERATORS = {
    "ipf-synth": IPFSynthesizer,
    "bayesnet": BayesNetGenerator,
    "mswg": tiny_mswg,
    "generate-only": GenerateOnly,
}

SQL = (
    "SELECT OPEN country, age, COUNT(*) AS n, AVG(age) AS a "
    "FROM People GROUP BY country, age"
)

#: ORDER BY clause -> what the unlimited answer's order must satisfy.
ORDERS = {
    "aggregate_desc": (" ORDER BY n DESC", lambda r: np.all(np.diff(r.column("n")) <= 0)),
    "key_asc": (" ORDER BY age ASC", lambda r: np.all(np.diff(r.column("age")) >= 0)),
    "none": ("", lambda r: r.rows() == sorted(r.rows())),
}


def answer(route, factory, sql):
    """``sql`` on a fresh engine (same seed every time) through ``route``."""
    run, _ = ROUTES[route]
    (result,) = run(factory, [sql])
    return result


def assert_first_rows(limited, unlimited, k):
    assert limited.relation.schema == unlimited.relation.schema
    assert limited.to_pylist() == unlimited.to_pylist()[:k]
    for name in unlimited.columns:
        mine, full = limited.column(name), unlimited.column(name)
        if full.dtype != object:
            assert mine.tobytes() == full[:k].tobytes(), name  # bit-for-bit


class TestLimitIsTheHeadOfTheUnlimitedAnswer:
    @pytest.mark.parametrize("order", list(ORDERS))
    @pytest.mark.parametrize("name", list(GENERATORS))
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_limit_k_returns_the_first_min_k_groups(self, route, name, order):
        factory = GENERATORS[name]
        clause, ordered = ORDERS[order]
        unlimited = answer(route, factory, SQL + clause)
        groups = unlimited.num_rows
        assert groups >= 2
        assert ordered(unlimited)
        for k in sorted({0, 1, groups - 1, groups, groups + 1}):
            limited = answer(route, factory, f"{SQL}{clause} LIMIT {k}")
            assert limited.num_rows == min(k, groups), k
            assert_first_rows(limited, unlimited, k)
            assert limited.has_note("composite (rep, group) codes")


class TestOrderByNames:
    @pytest.mark.parametrize("name", ["ipf-synth", "bayesnet"])
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_order_by_name_resolves_case_insensitively(self, route, name):
        """``ORDER BY N`` names the ``n`` column, as it does on CLOSED and
        SEMI-OPEN: the OPEN answer applies the plan's resolved Sort."""
        factory = GENERATORS[name]
        sql = "SELECT OPEN country, COUNT(*) AS n FROM People GROUP BY country"
        lower = answer(route, factory, sql + " ORDER BY n DESC")
        upper = answer(route, factory, sql + " ORDER BY N DESC")
        assert np.all(np.diff(lower.column("n")) <= 0)
        assert_first_rows(upper, lower, lower.num_rows)


class TestDirectInference:
    @pytest.mark.parametrize("name", ["ipf-synth", "bayesnet"])
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_count_by_inference_obeys_its_limit(self, route, name):
        """A pure COUNT answered without materialising tuples is one row;
        ``LIMIT 0`` still cuts it, as it does on CLOSED."""
        factory = GENERATORS[name]
        sql = "SELECT OPEN COUNT(*) AS n FROM People WHERE age > 25"
        unlimited = answer(route, factory, sql)
        assert unlimited.has_note("direct inference")
        assert unlimited.num_rows == 1
        for k in (0, 1, 2):
            limited = answer(route, factory, f"{sql} LIMIT {k}")
            assert limited.has_note("direct inference")
            assert_first_rows(limited, unlimited, k)
