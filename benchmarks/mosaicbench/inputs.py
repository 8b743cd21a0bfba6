"""Everything the program under test receives, generated from the seed.

The benchmark's ``--seed`` stops here: it shapes the flights population,
the biased sample drawn from it, the literals inside the SQL statements
and the order they are issued in.  The engines are always built with
their own default seed, so no seed, workload name or benchmark flag
reaches ``repro.*``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.catalog.metadata import Marginal
from repro.relational.relation import Relation
from repro.workloads.flights import (
    FlightsConfig,
    bucket_flights,
    flights_marginals,
    make_biased_flights_sample,
    make_flights_population,
)
from repro.workloads.queries import AggregateQuery, paper_flights_queries

POPULATION_DDL = (
    "CREATE GLOBAL POPULATION Flights (carrier TEXT, taxi_out INT, "
    "taxi_in INT, elapsed_time INT, distance INT)"
)
SAMPLE_DDL = "CREATE SAMPLE S AS (SELECT * FROM Flights)"


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, purpose): adding a consumer
    never shifts the draws of the others."""
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


# ---------------------------------------------------------------------- #
# Data
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Flights:
    """A flights population the analyst never sees, and what they do see."""

    config: FlightsConfig
    population: Relation  # ground truth, bucketed like the sample
    sample: Relation  # the biased sample the user ingests
    marginals: list[Marginal]  # the published 2-D reports
    spare: Relation  # further biased rows, arriving later as INSERTs


def make_flights(
    seed: int, rows: int, sample_percent: float, spare_rows: int = 0
) -> Flights:
    config = FlightsConfig(rows=rows, sample_percent=sample_percent)
    rng = rng_for(seed, 1)
    raw = make_flights_population(config, rng)
    population = bucket_flights(raw, config)
    sample, _, _ = make_biased_flights_sample(population, config, rng)
    if spare_rows:
        # Late arrivals follow the same bias as the sample: long flights
        # nineteen times in twenty.
        long_rows = np.flatnonzero(
            population.column("elapsed_time") > config.long_flight_minutes
        )
        short_rows = np.flatnonzero(
            population.column("elapsed_time") <= config.long_flight_minutes
        )
        take_long = rng.random(spare_rows) < config.sample_bias
        picks = np.where(
            take_long,
            rng.choice(long_rows, size=spare_rows),
            rng.choice(short_rows, size=spare_rows),
        )
        spare = population.take(picks)
    else:
        spare = population.take(np.zeros(0, dtype=np.int64))
    return Flights(
        config=config,
        population=population,
        sample=sample,
        marginals=flights_marginals(raw, config),
        spare=spare,
    )


def redraw_sample(flights: Flights, seed: int, draw: int) -> Flights:
    """The same population and reports with another biased sample drawn
    from them (``draw`` >= 1; the original is draw 0)."""
    sample, _, _ = make_biased_flights_sample(
        flights.population, flights.config, rng_for(seed, 12, draw)
    )
    return dataclasses.replace(flights, sample=sample)


def columns_of(relation: Relation) -> dict[str, np.ndarray]:
    return {name: relation.column(name) for name in relation.column_names}


def row_bytes(relation: Relation) -> bytes:
    """The relation's cells as bytes (seed-determinism checks, digests)."""
    parts = []
    for name in relation.column_names:
        column = relation.column(name)
        if column.dtype == object:
            parts.append("\x00".join(str(v) for v in column).encode())
        else:
            parts.append(np.ascontiguousarray(column).tobytes())
    return b"\x01".join(parts)


def user_bytes(relation: Relation) -> int:
    """Raw size of the rows as the user holds them: UTF-8 text plus eight
    bytes per numeric cell."""
    total = 0
    for name in relation.column_names:
        column = relation.column(name)
        if column.dtype == object:
            total += sum(len(str(v).encode()) for v in column)
        else:
            total += 8 * len(column)
    return total


def load_flights(db, flights: Flights) -> None:
    """DDL, ingest and marginals through the in-process public API."""
    db.execute(POPULATION_DDL)
    db.execute(SAMPLE_DDL)
    db.ingest_relation("S", flights.sample)
    for marginal in flights.marginals:
        db.register_marginal(marginal.name, "Flights", marginal)


def sql_literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(int(value))


def insert_statements(table: str, relation: Relation, batch: int) -> list[str]:
    """``INSERT INTO table VALUES ...`` statements of ``batch`` rows each."""
    rows = list(relation.rows())
    statements = []
    for start in range(0, len(rows), batch):
        values = ", ".join(
            "(" + ", ".join(sql_literal(v) for v in row) + ")"
            for row in rows[start : start + batch]
        )
        statements.append(f"INSERT INTO {table} VALUES {values}")
    return statements


def flights_sql_script(flights: Flights, batch: int = 500) -> list[str]:
    """The same load as :func:`load_flights`, as SQL a wire client can send:
    marginals travel as auxiliary count tables plus ``CREATE METADATA``."""
    statements = [POPULATION_DDL, SAMPLE_DDL]
    statements += insert_statements("S", flights.sample, batch)
    for marginal in flights.marginals:
        first, second = marginal.attributes
        first_type = "TEXT" if first == "carrier" else "INT"
        aux = f"Report_{marginal.name}"
        statements.append(
            f"CREATE TEMPORARY TABLE {aux} ({first} {first_type}, {second} INT, n INT)"
        )
        cells = Relation.from_dict(
            {
                first: [key[0] for key, _ in marginal.cells()],
                second: [key[1] for key, _ in marginal.cells()],
                "n": [int(mass) for _, mass in marginal.cells()],
            }
        )
        statements += insert_statements(aux, cells, batch)
        statements.append(
            f"CREATE METADATA Flights_{marginal.name} FOR Flights AS "
            f"(SELECT {first}, {second}, n FROM {aux})"
        )
    return statements


# ---------------------------------------------------------------------- #
# Statements
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ClosedStatement:
    """A CLOSED statement plus what a brute force needs to answer it."""

    sql: str
    group_by: tuple[str, ...]
    aggregates: tuple[tuple[str, str | None, str], ...]  # (function, column, alias)
    mask: Callable[[dict[str, np.ndarray]], np.ndarray] | None = None


def brute_force(
    statement: ClosedStatement, columns: dict[str, np.ndarray]
) -> dict[tuple, tuple]:
    """Answer ``statement`` with plain numpy: ``{group key: aggregate values}``.

    Shares nothing with the engine's kernels: a boolean mask, a sort of
    the surviving rows by their key tuple, and one numpy reduction per
    group and aggregate.
    """
    rows = len(next(iter(columns.values())))
    keep = np.ones(rows, dtype=bool) if statement.mask is None else statement.mask(columns)
    indices = np.flatnonzero(keep)
    if len(indices) == 0:
        return {}
    keys = [columns[name][indices] for name in statement.group_by]
    if keys:
        # lexsort sorts by the last key first; str() makes mixed columns comparable.
        order = np.lexsort([np.asarray(k, dtype=str) for k in reversed(keys)])
        sorted_keys = [k[order] for k in keys]
        changed = np.zeros(len(order), dtype=bool)
        changed[0] = True
        for k in sorted_keys:
            changed[1:] |= k[1:] != k[:-1]
        starts = np.flatnonzero(changed)
    else:
        order = np.arange(len(indices))
        sorted_keys = []
        starts = np.zeros(1, dtype=np.int64)
    stops = np.append(starts[1:], len(order))
    reducers = {
        "AVG": lambda d: float(d.sum() / len(d)),
        "SUM": lambda d: float(d.sum()),
        "MIN": lambda d: float(d.min()),
        "MAX": lambda d: float(d.max()),
    }
    data = {
        column: np.asarray(columns[column][indices][order], dtype=np.float64)
        for _, column, _ in statement.aggregates
        if column is not None
    }
    answer = {}
    for start, stop in zip(starts, stops):
        key = tuple(
            k[start] if isinstance(k[start], str) else int(k[start])
            for k in sorted_keys
        )
        answer[key] = tuple(
            float(stop - start)
            if function == "COUNT"
            else reducers[function](data[column][start:stop])
            for function, column, _ in statement.aggregates
        )
    return answer


def result_as_groups(result, statement: ClosedStatement) -> dict[tuple, tuple]:
    """An engine result in the shape :func:`brute_force` returns."""
    keys = [result.column(name) for name in statement.group_by]
    values = [result.column(alias) for _, _, alias in statement.aggregates]
    answer = {}
    for row in range(result.num_rows):
        key = tuple(k[row] if isinstance(k[row], str) else int(k[row]) for k in keys)
        answer[key] = tuple(float(v[row]) for v in values)
    return answer


def groups_match(got: dict[tuple, tuple], want: dict[tuple, tuple]) -> bool:
    """Same groups; each aggregate equal up to float summation order."""
    if got.keys() != want.keys():
        return False
    return all(
        np.allclose(got[key], want[key], rtol=1e-9, atol=0.0) for key in want
    )


def closed_statements(
    seed: int, table: str = "Flights", variant: int = 0
) -> list[ClosedStatement]:
    """Three CLOSED shapes: grouped AVG; filtered COUNT+AVG; LIKE plus a
    two-key GROUP BY with MIN/MAX.  The filter literal moves with the seed
    inside one distance bucket-width, so cost stays put and text does not.
    ``variant`` makes one analyst's texts differ from another's (an alias,
    a literal one higher) without changing any answer's shape."""
    cut = int(rng_for(seed, 2).integers(480, 521)) + variant
    d = f"d{variant}" if variant else "d"
    return [
        ClosedStatement(
            sql=f"SELECT CLOSED carrier, AVG(distance) AS {d} FROM {table} GROUP BY carrier",
            group_by=("carrier",),
            aggregates=(("AVG", "distance", d),),
        ),
        ClosedStatement(
            sql=(
                f"SELECT CLOSED COUNT(*) AS n, AVG(elapsed_time) AS t "
                f"FROM {table} WHERE distance > {cut}"
            ),
            group_by=(),
            aggregates=(("COUNT", None, "n"), ("AVG", "elapsed_time", "t")),
            mask=lambda c, cut=cut: c["distance"] > cut,
        ),
        ClosedStatement(
            sql=(
                f"SELECT CLOSED carrier, distance, MIN(taxi_out) AS lo, "
                f"MAX(taxi_out) AS hi FROM {table} WHERE carrier LIKE 'A%' "
                "GROUP BY carrier, distance"
            ),
            group_by=("carrier", "distance"),
            aggregates=(("MIN", "taxi_out", "lo"), ("MAX", "taxi_out", "hi")),
            mask=lambda c: np.asarray([v.startswith("A") for v in c["carrier"]]),
        ),
    ]


def cold_closed_statement(literal: float, table: str = "Flights") -> ClosedStatement:
    """One member of the cache-missing family: same shape as the filtered
    hot statement, a literal no other statement shares."""
    return ClosedStatement(
        sql=(
            f"SELECT CLOSED COUNT(*) AS n, AVG(elapsed_time) AS t "
            f"FROM {table} WHERE distance > {literal!r}"
        ),
        group_by=(),
        aggregates=(("COUNT", None, "n"), ("AVG", "elapsed_time", "t")),
        mask=lambda c, literal=literal: c["distance"] > literal,
    )


def cold_literals(seed: int, count: int = 4000) -> list[float]:
    """``count`` distinct literals in seeded order (100.25, 100.75, ...)."""
    values = 100.25 + 0.5 * np.arange(count)
    return [float(v) for v in rng_for(seed, 3).permutation(values)]


def with_visibility(query: AggregateQuery, visibility: str, table: str = "Flights") -> str:
    """``AggregateQuery.to_sql`` with an explicit visibility keyword."""
    sql = query.to_sql(table)
    assert sql.startswith("SELECT ")
    return f"SELECT {visibility} " + sql[len("SELECT ") :]


def paper_queries(seed: int, variant: int = 0) -> list[AggregateQuery]:
    """Table 2's eight queries, thresholds moved by the seed within 5%
    (and by ``variant``, one analyst's literal differing from another's)."""
    rng = rng_for(seed, 4)
    return [
        dataclasses.replace(
            query,
            threshold=float(round(query.threshold * rng.uniform(0.95, 1.05))) + variant,
        )
        for query in paper_flights_queries()
    ]


def semi_open_statements(seed: int, variant: int = 0) -> list[AggregateQuery]:
    """The three timed SEMI-OPEN shapes: ungrouped AVG over a long-flight
    filter (Q1), ungrouped AVG over a distance filter (Q4), and the
    grouped two-carrier AVG (Q5)."""
    queries = {query.query_id: query for query in paper_queries(seed, variant)}
    return [queries["1"], queries["4"], queries["5"]]


def every_carrier(query: AggregateQuery, population: Relation) -> AggregateQuery:
    """``query`` grouped over every carrier of the population."""
    carriers = tuple(sorted({str(c) for c in population.dictionary("carrier")[0]}))
    return dataclasses.replace(
        query,
        query_id=query.query_id + "-by-carrier",
        group_by="carrier",
        group_values=carriers,
    )


def error_suite(seed: int, population: Relation) -> list[AggregateQuery]:
    """The queries an answer error is averaged over: Table 2's eight; its
    four ungrouped shapes at six further thresholds each (8%, 16%, 24%
    either side), whose error is the marginals' bucketing and barely moves
    from one population to the next; and the four shapes grouped over every
    carrier, rare ones included, whose error is mostly sampling noise."""
    table2 = paper_queries(seed)
    shifted = [
        dataclasses.replace(
            query,
            query_id=f"{query.query_id}{step:+d}",
            threshold=float(round(query.threshold * (1 + 0.08 * step))),
        )
        for query in table2[:4]
        for step in (-3, -2, -1, 1, 2, 3)
    ]
    return table2 + shifted + [every_carrier(q, population) for q in table2[:4]]


def truth_of(query: AggregateQuery, population: Relation) -> dict[tuple, float]:
    """The true answer of an AVG ``query`` over the whole population.

    ``AggregateQuery.evaluate`` gives the same numbers; this vectorised
    form (one mask, one ``bincount`` per carrier code) stays fast on a
    million rows and fourteen groups.
    """
    assert query.aggregate == "AVG"
    compare = {">": np.greater, "<": np.less}[query.comparator]
    keep = compare(
        np.asarray(population.column(query.filter_attribute), dtype=np.float64),
        query.threshold,
    )
    target = np.asarray(population.column(query.target), dtype=np.float64)
    if query.group_by is None:
        return {(): float(target[keep].mean())} if keep.any() else {}
    carriers, codes = population.dictionary(query.group_by)
    sums = np.bincount(codes[keep], weights=target[keep], minlength=len(carriers))
    counts = np.bincount(codes[keep], minlength=len(carriers))
    wanted = set(query.group_values)
    return {
        (str(carrier),): float(sums[i] / counts[i])
        for i, carrier in enumerate(carriers)
        if counts[i] and (not wanted or str(carrier) in wanted)
    }


def answer_groups(result) -> dict[tuple, float]:
    """A one-aggregate result as ``{group key: value}``, the shape
    ``AggregateQuery.evaluate`` returns for the truth."""
    names = list(result.columns)
    keys = [result.column(name) for name in names[:-1]]
    values = result.column(names[-1])
    return {
        tuple(str(k[row]) for k in keys): float(values[row])
        for row in range(result.num_rows)
    }


def round_robin(classes: Sequence[Sequence], count: int, seed: int) -> list:
    """``count`` items cycling through a seeded shuffle of all the items in
    ``classes``, so every item is issued equally often in a fixed order."""
    items = [item for members in classes for item in members]
    order = rng_for(seed, 5).permutation(len(items))
    return [items[order[i % len(items)]] for i in range(count)]
