"""closed_scan: data-bound CLOSED and SEMI-OPEN reads over a large sample."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter

from repro import MosaicDB
from repro.metrics.error import average_percent_difference

from .. import direct, inputs, procs
from ..harness import OpLog, Outcome, cache_delta, engine_counts, guard_deadline, identical, latency_metrics

NAME = "closed_scan"
WHY = (
    "Data-bound: one in-process session scans a 300k-row sample with every cache "
    "warm, so kernels and plan execution are the cost; kernel, layout or morsel "
    "changes show here and not on served_mix."
)


@dataclass(frozen=True)
class Sizes:
    rows: int  # flights population
    sample_percent: float
    ops_per_second: int  # measured operations per second of --seconds
    error_ceiling_pct: float  # SEMI-OPEN answers must be closer to truth than this


FULL = Sizes(rows=1_000_000, sample_percent=30.0, ops_per_second=120, error_ceiling_pct=5.0)
QUICK = Sizes(rows=60_000, sample_percent=30.0, ops_per_second=150, error_ceiling_pct=10.0)

#: Sample draws the answer error is averaged over (the workload's own + 5;
#: 0.4 s each).  Over ten seeds the error spread by 15-20% with two draws,
#: close to the 25% the driver allows, and by 6-10% with six.
ERROR_DRAWS = 6


@dataclass
class Context:
    sizes: Sizes
    seed: int
    db: MosaicDB
    flights: inputs.Flights
    closed: list[inputs.ClosedStatement]
    semi_open: list  # AggregateQuery


def statement_stream(seed: int, sizes: Sizes, count: int) -> list[tuple[str, str]]:
    closed, semi = inputs.closed_statements(seed), inputs.semi_open_statements(seed)
    classes = [
        [("closed", s.sql) for s in closed],
        [("semi_open", inputs.with_visibility(q, "SEMI-OPEN")) for q in semi],
    ]
    return inputs.round_robin(classes, count, seed)


def setup(
    stack: contextlib.ExitStack, seed: int, sizes: Sizes, seconds: float, hosted: bool
) -> Context:
    flights = inputs.make_flights(seed, sizes.rows, sizes.sample_percent)
    db = MosaicDB()
    stack.callback(db.close)
    inputs.load_flights(db, flights)
    closed, semi = inputs.closed_statements(seed), inputs.semi_open_statements(seed)
    # Warm-up: one pass fills the statement, plan and reweight caches (the
    # first SEMI-OPEN statement rakes the sample against the marginals).
    for _, sql in statement_stream(seed, sizes, len(closed) + len(semi)):
        db.execute(sql)
    return Context(sizes, seed, db, flights, closed, semi)


def measure(ctx: Context, seconds: float, tracer=None) -> Outcome:
    count = max(6, int(ctx.sizes.ops_per_second * seconds))
    stream = statement_stream(ctx.seed, ctx.sizes, count)
    by_sql = {s.sql: s for s in ctx.closed}
    by_sql.update({inputs.with_visibility(q, "SEMI-OPEN"): q for q in ctx.semi_open})
    log = OpLog(tracer)
    before = ctx.db.cache_stats()
    deadline = guard_deadline(seconds)
    # Peak memory is the measured phase's: it starts over here, after input
    # generation and loading, and is read before the checks allocate.
    pids = procs.engine_pids()
    rss_reset = procs.reset_peak_rss(pids)
    start = perf_counter()
    for op_class, sql in stream:
        log.run(op_class, by_sql[sql], ctx.db.execute, sql)
        if perf_counter() > deadline:
            break
    wall = perf_counter() - start
    peak_rss = procs.peak_rss_mb(pids)
    after = ctx.db.cache_stats()

    outcome = Outcome(log=log, wall_s=wall, throughput_ops=0)
    outcome.metrics["peak_rss_mb"] = peak_rss
    outcome.details["peak_rss_reset"] = rss_reset
    _check(ctx, outcome, before, after)
    outcome.throughput_ops = len(log.of("closed", "semi_open"))
    outcome.metrics.update(latency_metrics(log, "closed", "closed"))
    outcome.metrics.update(latency_metrics(log, "semi_open", "semi_open"))
    outcome.counts.update(engine_counts(before, after))
    if tracer is not None:
        outcome.counts.update(direct.shm_times(ctx.flights.sample))
    outcome.details["sample_rows"] = ctx.flights.sample.num_rows
    outcome.details["measured_ops"] = len(log.ops)
    return outcome


def _check(ctx: Context, outcome: Outcome, before: dict, after: dict) -> None:
    log = outcome.log
    sample_columns = inputs.columns_of(ctx.flights.sample)
    truth = {s.sql: inputs.brute_force(s, sample_columns) for s in ctx.closed}
    first_answer: dict[str, object] = {}
    for op in log.ops:
        if op.error is not None:
            continue
        if op.op_class == "closed":
            got = inputs.result_as_groups(op.result, op.key)
            if not inputs.groups_match(got, truth[op.key.sql]):
                log.fail(op, "CLOSED answer differs from the numpy brute force")
        else:
            reference = first_answer.setdefault(op.key.query_id, op.result)
            if not identical(op.result, reference):
                log.fail(op, "SEMI-OPEN answer changed between identical statements")

    # The debiasing promise: SEMI-OPEN answers against truth computed on
    # the population the analyst never sees, over inputs.error_suite.  At
    # a 30% sample most of what is left is sampling noise, so it is
    # averaged over the workload's sample and five further draws.
    population = ctx.flights.population
    suite = inputs.error_suite(ctx.seed, population)
    truths = [inputs.truth_of(query, population) for query in suite]
    errors = []
    for draw in range(ERROR_DRAWS):
        with contextlib.ExitStack() as stack:
            if draw == 0:
                db = ctx.db
            else:
                db = stack.enter_context(MosaicDB())
                inputs.load_flights(db, inputs.redraw_sample(ctx.flights, ctx.seed, draw))
            for query, truth in zip(suite, truths):
                result = db.execute(inputs.with_visibility(query, "SEMI-OPEN"))
                error = average_percent_difference(inputs.answer_groups(result), truth)
                if error is not None:
                    errors.append(error)
    answer_error = sum(errors) / len(errors)
    outcome.metrics["answer_rel_err_pct"] = answer_error
    outcome.require_error_below(answer_error, ctx.sizes.error_ceiling_pct)
    plans = cache_delta(before, after, "plans")
    if plans["misses"]:
        outcome.check_failures.append(
            f"{plans['misses']} plan-cache misses in a phase meant to be all hits"
        )
    outcome.require_pool_off(after["execution"])


def finish(ctx: Context, outcome: Outcome) -> None:
    ctx.db.close()
