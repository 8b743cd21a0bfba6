"""open_world: the paper's novel path — fit a generator, answer OPEN queries."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro import MosaicDB
from repro.engine.open_world import OpenQueryConfig
from repro.metrics.error import average_percent_difference

from .. import direct, inputs, procs, stats
from ..harness import (
    OpLog,
    Outcome,
    engine_counts,
    finite,
    guard_deadline,
    identical,
    latency_metrics,
)

NAME = "open_world"
WHY = (
    "Generative path: default M-SWG fit to first answer, then all four OPEN "
    "execution paths in a steady mix, then reopen cycles answered from the "
    "persisted model."
)


@dataclass(frozen=True)
class Sizes:
    rows: int  # flights population; the biased sample is 5% of it
    steady_ops_per_second: int  # 0: a fixed count (the probe does not scale)
    steady_ops: int  # used when steady_ops_per_second is 0
    reopen_cycles: int
    error_ceiling_pct: float


FULL = Sizes(rows=40_000, steady_ops_per_second=9, steady_ops=0, reopen_cycles=8, error_ceiling_pct=60.0)
QUICK = Sizes(rows=6_000, steady_ops_per_second=0, steady_ops=10, reopen_cycles=2, error_ceiling_pct=200.0)
#: The lifecycle probe other workloads run, once a round, to fill the
#: OPEN-side metrics.
PROBE = Sizes(rows=10_000, steady_ops_per_second=0, steady_ops=40, reopen_cycles=6, error_ceiling_pct=200.0)

GROUPED_SQL = "SELECT OPEN carrier, AVG(distance) AS d, COUNT(*) AS n FROM Flights GROUP BY carrier"


@dataclass
class Context:
    sizes: Sizes
    seed: int
    data_dir: str
    db: MosaicDB
    flights: inputs.Flights


def _statements(seed: int) -> list[tuple[str, str]]:
    """Ten ``(session, sql)`` slots, issued in a seeded round-robin: the
    grouped aggregate four times and the filtered count three (one cost
    mode, 70% of the operations, so the p50 sits inside it), the grouped
    aggregate on the adaptive session twice (its cost moves with the data:
    4 to 12 repetitions), and the LIMIT projection once — the slowest
    mode at one operation in ten, so the p95 is that mode's *median*."""
    rng = inputs.rng_for(seed, 6)
    cut = int(rng.integers(480, 521))
    floor = int(rng.integers(90, 111))
    count = f"SELECT OPEN COUNT(*) AS n FROM Flights WHERE distance > {cut}"
    page = f"SELECT OPEN carrier, distance FROM Flights WHERE elapsed_time > {floor} LIMIT 50"
    return (
        [("fixed", GROUPED_SQL)] * 4
        + [("fixed", count)] * 3
        + [("adaptive", GROUPED_SQL)] * 2
        + [("fixed", page)]
    )


def statement_stream(seed: int, sizes: Sizes, count: int) -> list[tuple[str, str]]:
    return inputs.round_robin([_statements(seed)], count, seed)


def setup(
    stack: contextlib.ExitStack, seed: int, sizes: Sizes, seconds: float, hosted: bool
) -> Context:
    flights = inputs.make_flights(seed, sizes.rows, 5.0)
    data_dir = procs.make_data_dir(stack)
    db = MosaicDB(data_dir=data_dir)
    inputs.load_flights(db, flights)
    # No warm-up: the first OPEN answer, model fit included, is measured.
    ctx = Context(sizes, seed, data_dir, db, flights)
    stack.callback(lambda: ctx.db.close())
    return ctx


def measure(ctx: Context, seconds: float, tracer=None) -> Outcome:
    sizes = ctx.sizes
    count = sizes.steady_ops or max(4, int(sizes.steady_ops_per_second * seconds))
    log = OpLog(tracer)
    db = ctx.db
    before = db.cache_stats()
    pids = procs.engine_pids()
    rss_reset = procs.reset_peak_rss(pids)  # see closed_scan.measure

    # Phase 1: ingest complete -> first OPEN answer (fit + generate + execute).
    cold = log.run("cold_open", GROUPED_SQL, db.execute, GROUPED_SQL)

    # Phase 2: the steady mix.
    adaptive = db.connect(
        open_config=OpenQueryConfig(tolerance=0.1, max_repetitions=20)
    )
    sessions = {"fixed": db, "adaptive": adaptive}
    deadline = guard_deadline(seconds, scaled=sizes.steady_ops == 0)
    start = perf_counter()
    for session, sql in statement_stream(ctx.seed, sizes, count):
        log.run("open", (session, sql), sessions[session].execute, sql)
        if perf_counter() > deadline:
            break
    wall = perf_counter() - start
    after = db.cache_stats()
    adaptive.close()

    # Phase 3: close, then reopen -> first OPEN answer from the restored model.
    db.close()
    restored_models = 0
    for _ in range(sizes.reopen_cycles):
        procs.release_free_memory()

        def reopen_and_ask():
            ctx.db = MosaicDB(data_dir=ctx.data_dir)
            return ctx.db.execute(GROUPED_SQL)

        log.run("reopen", GROUPED_SQL, reopen_and_ask)
        restored_models = ctx.db.cache_stats()["storage"]["restored_models"]
        ctx.db.close()
    peak_rss = procs.peak_rss_mb(pids)

    outcome = Outcome(log=log, wall_s=wall, throughput_ops=0)
    outcome.metrics["peak_rss_mb"] = peak_rss
    outcome.details["peak_rss_reset"] = rss_reset
    _check(ctx, outcome, cold, after)
    outcome.throughput_ops = len(log.of("open"))
    outcome.metrics.update(latency_metrics(log, "open", "open"))
    cold_ms = log.latencies("cold_open")
    if cold_ms:
        outcome.metrics["cold_first_answer_s"] = cold_ms[0] / 1e3
    reopens = log.latencies("reopen")
    if reopens:
        outcome.metrics["warm_reopen_ms"] = stats.median(reopens)
    open_ops = log.of("open")
    outcome.counts.update(engine_counts(before, after))
    outcome.counts.update(
        {
            "engine.open_fallback_ops": sum(
                1 for op in open_ops if op.result.has_note("non-aggregate OPEN query")
            ),
            "engine.open_repetitions_used": (
                float(np.mean([op.result.repetitions_used or 0 for op in open_ops]))
                if open_ops
                else 0.0
            ),
            "storage.restored_models": restored_models,
        }
    )
    if tracer is not None:
        outcome.counts.update(
            direct.generator_times(ctx.flights.sample, ctx.flights.marginals)
        )
    outcome.details["sample_rows"] = ctx.flights.sample.num_rows
    outcome.details["steady_ops"] = count
    return outcome


def _check(ctx: Context, outcome: Outcome, cold, after: dict) -> None:
    log = outcome.log
    population = ctx.flights.population
    carriers = population.column("carrier")
    distance = np.asarray(population.column("distance"), dtype=np.float64)
    truth_avg = {
        (c,): float(distance[carriers == c].mean()) for c in sorted(set(carriers))
    }
    errors = []
    for op in log.of("open", "cold_open", "reopen"):
        result = op.result
        if result.num_rows == 0 or not finite(result):
            log.fail(op, "OPEN answer is empty or not finite")
            continue
        if op.op_class == "reopen":
            if not result.has_note("generator cache hit"):
                log.fail(op, "reopened engine refitted instead of restoring the model")
            elif cold is not None and not identical(result, cold):
                log.fail(op, "reopened engine answers differently from the closed one")
        if op.op_class == "open":
            session, sql = op.key
            if sql == GROUPED_SQL:
                estimate = {
                    (str(c),): float(v)
                    for c, v in zip(result.column("carrier"), result.column("d"))
                }
                errors.append(average_percent_difference(estimate, truth_avg))
            elif "COUNT(*) AS n FROM Flights WHERE" in sql:
                cut = float(sql.rsplit(">", 1)[1])
                truth = float(np.sum(distance > cut))
                errors.append(abs(float(result.column("n")[0]) - truth) / truth * 100.0)
    errors = [e for e in errors if e is not None]
    if errors:
        answer_error = float(np.mean(errors))
        outcome.metrics["answer_rel_err_pct"] = answer_error
        outcome.require_error_below(answer_error, ctx.sizes.error_ceiling_pct)
    outcome.require_pool_off(after["execution"])


def finish(ctx: Context, outcome: Outcome) -> None:
    """The engine is closed; what is left on disk is what the model costs."""
    stored = procs.directory_bytes(ctx.data_dir)
    outcome.metrics["stored_bytes_per_user_byte"] = stored / inputs.user_bytes(
        ctx.flights.sample
    )
    outcome.counts["storage.model_bytes"] = procs.directory_bytes(ctx.data_dir, "models.pkl")
    outcome.counts["storage.checkpoint_bytes"] = stored
