"""ingest_restart: writes beside reads, a crash copy, and warm restarts."""

from __future__ import annotations

import contextlib
import shutil
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro import MosaicDB
from repro.metrics.error import average_percent_difference

from .. import inputs, procs, stats
from ..harness import (
    OpLog,
    Outcome,
    engine_counts,
    guard_deadline,
    identical,
    latency_metrics,
)

NAME = "ingest_restart"
WHY = (
    "Writes beside reads through one lock: each INSERT forces the next SEMI-OPEN "
    "read to re-rake; checkpoints, a crash copy of the data_dir and warm reopens "
    "exercise storage and recovery."
)


@dataclass(frozen=True)
class Sizes:
    rows: int  # flights population; the initial sample is 5% of it
    batch: int  # rows of the usual INSERT; see INSERT_PATTERN
    cycles_per_second: int  # 0: a fixed count (the probe does not scale)
    cycles: int  # used when cycles_per_second is 0
    checkpoint_every: int
    reopen_cycles: int
    error_ceiling_pct: float


FULL = Sizes(rows=40_000, batch=50, cycles_per_second=50, cycles=0, checkpoint_every=100, reopen_cycles=15, error_ceiling_pct=25.0)
QUICK = Sizes(rows=6_000, batch=50, cycles_per_second=0, cycles=12, checkpoint_every=5, reopen_cycles=2, error_ceiling_pct=60.0)
#: The lifecycle probe other workloads run, once a round, to fill the
#: write-side metrics.
PROBE = Sizes(rows=10_000, batch=50, cycles_per_second=0, cycles=80, checkpoint_every=40, reopen_cycles=8, error_ceiling_pct=60.0)

@dataclass
class Context:
    sizes: Sizes
    seed: int
    data_dir: str
    db: MosaicDB
    flights: inputs.Flights
    inserts: dict[str, int]  # INSERT text -> rows it carries, in issue order
    closed: list[inputs.ClosedStatement]
    semi_open: list  # AggregateQuery
    stack: contextlib.ExitStack
    inserted: int = 0  # rows acknowledged by the end of the measured phase


def _closed_reads(seed: int) -> list[inputs.ClosedStatement]:
    """The CLOSED reads of ten consecutive cycles: two ungrouped filtered
    statements (one numpy mask each to brute-force) nine times in ten, and
    a grouped aggregate once — the slowest mode at one read in ten, so the
    CLOSED p95 is that mode's median, like the writes'."""
    rng = inputs.rng_for(seed, 7)
    cut = int(rng.integers(480, 521))
    minutes = int(rng.integers(190, 211))
    filtered = inputs.ClosedStatement(
        sql=f"SELECT CLOSED COUNT(*) AS n, AVG(elapsed_time) AS t FROM S WHERE distance > {cut}",
        group_by=(),
        aggregates=(("COUNT", None, "n"), ("AVG", "elapsed_time", "t")),
        mask=lambda c, cut=cut: c["distance"] > cut,
    )
    longest = inputs.ClosedStatement(
        sql=f"SELECT CLOSED COUNT(*) AS n, MAX(distance) AS far FROM S WHERE elapsed_time > {minutes}",
        group_by=(),
        aggregates=(("COUNT", None, "n"), ("MAX", "distance", "far")),
        mask=lambda c, minutes=minutes: c["elapsed_time"] > minutes,
    )
    grouped = inputs.ClosedStatement(
        sql="SELECT CLOSED carrier, COUNT(*) AS n, SUM(taxi_in) AS s, AVG(distance) AS d FROM S GROUP BY carrier",
        group_by=("carrier",),
        aggregates=(("COUNT", None, "n"), ("SUM", "taxi_in", "s"), ("AVG", "distance", "d")),
    )
    return [filtered, longest] * 4 + [filtered, grouped]


def _cycle_count(sizes: Sizes, seconds: float) -> int:
    return sizes.cycles or max(3, int(sizes.cycles_per_second * seconds))


#: INSERT sizes, in batches, of ten consecutive cycles: three in ten are
#: half a batch, six in ten one batch, one in ten four batches.  The write
#: p50 then sits inside the one-batch mode and the p95 is the *median* of
#: the four-batch mode — the stablest place a tail percentile can sit.
INSERT_PATTERN = (0.5, 1, 1, 0.5, 1, 1, 0.5, 1, 1, 4)


def _insert_statements(sizes: Sizes, spare, cycles: int) -> dict[str, int]:
    """One INSERT per cycle, sized by :data:`INSERT_PATTERN`."""
    statements = {}  # SQL text -> rows it inserts, in issue order
    start = 0
    for cycle in range(cycles):
        rows = int(sizes.batch * INSERT_PATTERN[cycle % len(INSERT_PATTERN)])
        chunk = spare.slice_rows(start, start + rows)
        (sql,) = inputs.insert_statements("S", chunk, rows)
        statements[sql] = rows
        start += rows
    return statements


def _spare_rows(sizes: Sizes, cycles: int) -> int:
    rounds = cycles // len(INSERT_PATTERN) + 1
    return int(rounds * sizes.batch * sum(INSERT_PATTERN))


def statement_stream(seed: int, sizes: Sizes, count: int) -> list[tuple[str, str]]:
    """``count`` cycles of (INSERT, SEMI-OPEN read, CLOSED read)."""
    flights = inputs.make_flights(
        seed, sizes.rows, 5.0, spare_rows=_spare_rows(sizes, count)
    )
    return _stream(seed, list(_insert_statements(sizes, flights.spare, count)))


def _stream(seed: int, inserts: list[str]) -> list[tuple[str, str]]:
    closed = _closed_reads(seed)
    semi = inputs.semi_open_statements(seed)
    stream = []
    for cycle, insert in enumerate(inserts):
        stream.append(("write", insert))
        stream.append(
            ("semi_open", inputs.with_visibility(semi[cycle % len(semi)], "SEMI-OPEN"))
        )
        stream.append(("closed", closed[cycle % len(closed)].sql))
    return stream


def setup(
    stack: contextlib.ExitStack, seed: int, sizes: Sizes, seconds: float, hosted: bool
) -> Context:
    cycles = _cycle_count(sizes, seconds)
    flights = inputs.make_flights(
        seed, sizes.rows, 5.0, spare_rows=_spare_rows(sizes, cycles)
    )
    inserts = _insert_statements(sizes, flights.spare, cycles)
    data_dir = procs.make_data_dir(stack)
    db = MosaicDB(data_dir=data_dir)
    inputs.load_flights(db, flights)
    closed = _closed_reads(seed)
    semi = inputs.semi_open_statements(seed)
    for statement in closed:
        db.execute(statement.sql)
    for query in semi:
        db.execute(inputs.with_visibility(query, "SEMI-OPEN"))
    ctx = Context(sizes, seed, data_dir, db, flights, inserts, closed, semi, stack)
    stack.callback(lambda: ctx.db.close())
    return ctx


def measure(ctx: Context, seconds: float, tracer=None) -> Outcome:
    sizes = ctx.sizes
    cycles = min(_cycle_count(sizes, seconds), len(ctx.inserts))
    stream = _stream(ctx.seed, list(ctx.inserts)[:cycles])
    closed_by_sql = {s.sql: s for s in ctx.closed}
    semi_by_sql = {inputs.with_visibility(q, "SEMI-OPEN"): q for q in ctx.semi_open}
    log = OpLog(tracer)
    db = ctx.db
    outcome = Outcome(log=log, wall_s=0.0, throughput_ops=0)
    before = db.cache_stats()
    pids = procs.engine_pids()
    outcome.details["peak_rss_reset"] = procs.reset_peak_rss(pids)  # see closed_scan.measure

    deadline = guard_deadline(seconds, scaled=sizes.cycles == 0)
    # The crash copy is taken mid-run, and never right after a checkpoint:
    # the copied WAL must hold records for the reopen to replay.
    crash_at = max(1, cycles // 2)
    if crash_at % sizes.checkpoint_every == 0:
        crash_at -= max(1, sizes.checkpoint_every // 3)
    paused = 0.0
    inserted = 0  # rows acknowledged so far
    start = perf_counter()
    for position, (op_class, sql) in enumerate(stream):
        cycle = position // 3
        if op_class == "write":
            if log.run("write", sql, db.execute, sql) is not None:
                inserted += ctx.inserts[sql]
        elif op_class == "semi_open":
            log.run("semi_open", semi_by_sql[sql], db.execute, sql)
        else:
            # The key remembers how many rows were acknowledged when the
            # read was issued: the brute force runs over exactly those.
            log.run("closed", (closed_by_sql[sql], inserted), db.execute, sql)
            if (cycle + 1) % sizes.checkpoint_every == 0:
                log.run("write", "checkpoint", db.checkpoint)
            if cycle + 1 == crash_at:
                t0 = perf_counter()
                _crash_copy_check(ctx, outcome, inserted)
                paused += perf_counter() - t0
            if perf_counter() > deadline:
                break
    outcome.wall_s = perf_counter() - start - paused
    after = db.cache_stats()

    # Close, then reopen -> first SEMI-OPEN answer from the restored rake.
    last_sql = inputs.with_visibility(ctx.semi_open[0], "SEMI-OPEN")
    final = db.execute(last_sql)
    db.close()
    for _ in range(sizes.reopen_cycles):
        procs.release_free_memory()

        def reopen_and_ask():
            ctx.db = MosaicDB(data_dir=ctx.data_dir)
            return ctx.db.execute(last_sql)

        log.run("reopen", final, reopen_and_ask)
        outcome.counts["storage.restored_models"] = ctx.db.cache_stats()["storage"][
            "restored_models"
        ]
        ctx.db.close()
    outcome.metrics["peak_rss_mb"] = procs.peak_rss_mb(pids)

    _check(ctx, outcome, after)
    outcome.throughput_ops = len(log.of("write", "semi_open", "closed"))
    outcome.metrics.update(latency_metrics(log, "closed", "closed"))
    outcome.metrics.update(latency_metrics(log, "semi_open", "semi_open"))
    outcome.metrics.update(latency_metrics(log, "write", "write"))
    reopens = log.latencies("reopen")
    if reopens:
        outcome.metrics["warm_reopen_ms"] = stats.median(reopens)
    outcome.counts.update(engine_counts(before, after))
    outcome.counts["storage.user_bytes_inserted"] = inputs.user_bytes(
        ctx.flights.spare.slice_rows(0, inserted)
    )
    outcome.details["cycles"] = cycles
    outcome.details["rows_inserted"] = inserted
    ctx.inserted = inserted
    return outcome


def _crash_copy_check(ctx: Context, outcome: Outcome, inserted: int) -> None:
    """Copy the live data_dir byte for byte — what a SIGKILL now would
    leave, since writes still in the process's buffers are not in the
    files — reopen the copy, and require every acknowledged INSERT."""
    copy = procs.make_data_dir(ctx.stack)
    shutil.rmtree(copy)
    shutil.copytree(ctx.data_dir, copy)
    t0 = perf_counter()
    recovered = MosaicDB(data_dir=copy)
    outcome.counts["storage.replay_reopen_ms"] = (perf_counter() - t0) * 1e3
    try:
        outcome.counts["storage.wal_replay_records"] = recovered.cache_stats()[
            "storage"
        ]["wal_replayed"]
        statement = ctx.closed[0]
        got = inputs.result_as_groups(recovered.execute(statement.sql), statement)
        want = inputs.brute_force(statement, _columns_after(ctx, inserted))
        if not inputs.groups_match(got, want):
            outcome.check_failures.append(
                "copied data_dir lost acknowledged INSERTs: "
                f"{got} after recovery, {want} acknowledged"
            )
    finally:
        recovered.close()
        shutil.rmtree(copy, ignore_errors=True)


def _columns_after(ctx: Context, inserted: int) -> dict[str, np.ndarray]:
    sample = inputs.columns_of(ctx.flights.sample)
    spare = inputs.columns_of(ctx.flights.spare)
    return {
        name: np.concatenate([sample[name], spare[name][:inserted]]) for name in sample
    }


def _check(ctx: Context, outcome: Outcome, after: dict) -> None:
    log = outcome.log
    truth_cache: dict[tuple[str, int], dict] = {}
    for op in log.of("closed"):
        statement, inserted = op.key
        want = truth_cache.get((statement.sql, inserted))
        if want is None:
            want = inputs.brute_force(statement, _columns_after(ctx, inserted))
            truth_cache[(statement.sql, inserted)] = want
        if not inputs.groups_match(inputs.result_as_groups(op.result, statement), want):
            log.fail(op, "CLOSED read differs from the numpy brute force over acknowledged rows")
    for op in log.of("reopen"):
        if not op.result.has_note("reweight cache hit"):
            log.fail(op, "reopened engine re-raked instead of restoring the weights")
        elif not identical(op.result, op.key):
            log.fail(op, "reopened engine answers differently from the closed one")
    errors = []
    truths = {q.query_id: q.evaluate(ctx.flights.population) for q in ctx.semi_open}
    for op in log.of("semi_open"):
        error = average_percent_difference(
            inputs.answer_groups(op.result), truths[op.key.query_id]
        )
        if error is not None:
            errors.append(error)
    if errors:
        answer_error = float(np.mean(errors))
        outcome.details["answer_rel_err_pct"] = answer_error
        outcome.require_error_below(answer_error, ctx.sizes.error_ceiling_pct)
    outcome.require_pool_off(after["execution"])


def finish(ctx: Context, outcome: Outcome) -> None:
    """The engine is closed; tables, WAL and checkpoints are what is stored."""
    stored = procs.directory_bytes(ctx.data_dir)
    ingested = inputs.user_bytes(ctx.flights.sample) + inputs.user_bytes(
        ctx.flights.spare.slice_rows(0, ctx.inserted)
    )
    outcome.metrics["stored_bytes_per_user_byte"] = stored / ingested
    outcome.counts["storage.checkpoint_bytes"] = stored
    outcome.counts["storage.model_bytes"] = procs.directory_bytes(ctx.data_dir, "models.pkl")
