"""fleet_scatter: a two-shard fleet — routed reads and scatter/gather."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro import MosaicDB
from repro.client import Connection
from repro.fleet import FleetClient, FleetRouter, PartitionSpec
from repro.relational.relation import Relation
from repro.server.server import MosaicServer

from .. import inputs, procs
from ..harness import OpLog, Outcome, guard_deadline, hit_pct, identical, latency_metrics

NAME = "fleet_scatter"
WHY = (
    "Router-bound: a 2-shard subprocess fleet; routed whole-query reads and "
    "scatter/gather aggregates over a sliced table; the only workload where "
    "router, fan-out or merge changes can show."
)


@dataclass(frozen=True)
class Sizes:
    rows: int  # flights population; its 5% sample is replicated to every shard
    sliced_rows: int  # rows of T, hash-sliced across the shards by name
    shards: int
    ops_per_second: int


FULL = Sizes(rows=40_000, sliced_rows=20_000, shards=2, ops_per_second=320)
QUICK = Sizes(rows=10_000, sliced_rows=4_000, shards=2, ops_per_second=100)

T_DDL = "CREATE TEMPORARY TABLE T (name TEXT, n INT)"
T_GROUPS = 64


@dataclass
class Context:
    sizes: Sizes
    seed: int
    flights: inputs.Flights
    script: list[str]  # every statement the fleet was loaded with
    host_pid: int | None
    port: int
    connection: Connection
    admin: FleetClient
    stop_fleet: object  # callable


def _sliced_table(seed: int, sizes: Sizes) -> Relation:
    rng = inputs.rng_for(seed, 8)
    return Relation.from_dict(
        {
            "name": [f"g{g}" for g in rng.integers(0, T_GROUPS, size=sizes.sliced_rows)],
            "n": rng.integers(0, 1000, size=sizes.sliced_rows).astype(np.int64),
        }
    )


def _load_script(seed: int, sizes: Sizes, flights: inputs.Flights) -> list[str]:
    return (
        inputs.flights_sql_script(flights)
        + [T_DDL]
        + inputs.insert_statements("T", _sliced_table(seed, sizes), 2000)
    )


def _statements(seed: int) -> list[list[tuple[str, str]]]:
    cut = int(inputs.rng_for(seed, 9).integers(450, 551))
    closed = [
        ("closed", inputs.closed_statements(seed)[0].sql),  # routed to one shard
        ("closed", "SELECT name, COUNT(*) AS c, SUM(n) AS s, AVG(n) AS a FROM T GROUP BY name"),
        (
            "closed",
            f"SELECT COUNT(*) AS c, SUM(n) AS s, MIN(n) AS lo, MAX(n) AS hi FROM T WHERE n > {cut}",
        ),
    ]
    semi = [
        ("semi_open", inputs.with_visibility(query, "SEMI-OPEN"))
        for query in inputs.semi_open_statements(seed)
    ]
    return [closed, semi]


def statement_stream(seed: int, sizes: Sizes, count: int) -> list[tuple[str, str]]:
    return inputs.round_robin(_statements(seed), count, seed)


def setup(
    stack: contextlib.ExitStack, seed: int, sizes: Sizes, seconds: float, hosted: bool
) -> Context:
    flights = inputs.make_flights(seed, sizes.rows, 5.0)
    script = _load_script(seed, sizes, flights)
    if hosted:
        # Traced runs host router and shards on threads of this process so
        # their functions can be wrapped; numbers are attribution only.
        servers = []
        for shard in range(sizes.shards):
            db = MosaicDB()
            stack.callback(db.close)
            server = MosaicServer(
                db.engine, port=0, session_config=db.session.config, shard_id=shard
            ).start_in_thread()
            stack.callback(server.stop_in_thread)
            servers.append(server)
        router = FleetRouter(
            [("127.0.0.1", server.port) for server in servers],
            port=0,
            partitions={"T": PartitionSpec("T", key_column="name")},
        ).start_in_thread()
        stack.callback(router.stop_in_thread)
        host_pid, port, stop = None, router.port, router.stop_in_thread
    else:
        fleet = procs.start_fleet(stack, sizes.shards, ["T:name"])
        procs.remember_shards(fleet)
        host_pid, port, stop = fleet.pid, fleet.port, fleet.stop
    connection = Connection("127.0.0.1", port, timeout=60.0)
    stack.callback(connection.close)
    admin = FleetClient("127.0.0.1", port, pool_size=1, timeout=60.0)
    stack.callback(admin.close)
    for statement in script:
        connection.execute(statement)
    for _, sql in statement_stream(seed, sizes, 6):
        connection.execute(sql)
    return Context(sizes, seed, flights, script, host_pid, port, connection, admin, stop)


def _shard_caches(admin: FleetClient) -> dict:
    """Every shard's engine cache counters, summed."""
    totals: dict = {}
    for payload in admin.shard_stats().values():
        for section in ("statements", "plans", "reweights"):
            for key in ("hits", "misses"):
                bucket = totals.setdefault(section, {"hits": 0, "misses": 0})
                bucket[key] += payload["engine"][section][key]
    return totals


def measure(ctx: Context, seconds: float, tracer=None) -> Outcome:
    count = max(6, int(ctx.sizes.ops_per_second * seconds))
    log = OpLog(tracer)
    before = ctx.admin.router_stats()
    caches_before = _shard_caches(ctx.admin)
    deadline = guard_deadline(seconds)
    pids = procs.engine_pids(ctx.host_pid, with_children=True)  # router and shards
    rss_reset = procs.reset_peak_rss(pids)  # boot and loading are set-up
    start = perf_counter()
    for op_class, sql in statement_stream(ctx.seed, ctx.sizes, count):
        log.run(op_class, sql, ctx.connection.execute, sql)
        if perf_counter() > deadline:
            break
    wall = perf_counter() - start
    peak_rss = procs.peak_rss_mb(pids)
    after = ctx.admin.router_stats()
    caches_after = _shard_caches(ctx.admin)
    rollup = ctx.admin.shard_rollup()

    outcome = Outcome(log=log, wall_s=wall, throughput_ops=0)
    outcome.metrics["peak_rss_mb"] = peak_rss
    outcome.details["peak_rss_reset"] = rss_reset
    _check(ctx, outcome, rollup)
    outcome.throughput_ops = len(log.of("closed", "semi_open"))
    outcome.metrics.update(latency_metrics(log, "closed", "closed"))
    outcome.metrics.update(latency_metrics(log, "semi_open", "semi_open"))
    routed = after["routed_queries"] - before["routed_queries"]
    scattered = after["scatter_queries"] - before["scatter_queries"]
    outcome.counts.update(
        {
            "fleet.shard_requests_per_op": (routed + scattered * ctx.sizes.shards)
            / max(1, len(log.ops)),
            "fleet.scatter_ops": scattered,
            "sql.statement_cache_hit_pct": hit_pct(caches_before, caches_after, "statements"),
            "engine.plan_cache_hit_pct": hit_pct(caches_before, caches_after, "plans"),
            "reweight.cache_hit_pct": hit_pct(caches_before, caches_after, "reweights"),
            "core.pool_batches": rollup["execution"]["parallel_batches"],
            "core.pool_tasks": rollup["execution"]["tasks_dispatched"],
        }
    )
    outcome.details["measured_ops"] = len(log.ops)
    outcome.details["routed"] = routed
    outcome.details["scattered"] = scattered
    outcome.details["hosting"] = "threads" if ctx.host_pid is None else "subprocess"
    return outcome


def _check(ctx: Context, outcome: Outcome, rollup: dict) -> None:
    """Every fleet answer must carry the bits one plain engine, loaded with
    the same statements, gives."""
    log = outcome.log
    with MosaicDB() as reference:
        for statement in ctx.script:
            reference.execute(statement)
        expected: dict[str, object] = {}
        for op in log.ops:
            if op.error is not None:
                continue
            want = expected.get(op.key)
            if want is None:
                want = expected[op.key] = reference.execute(op.key)
            if not identical(op.result, want):
                log.fail(op, "fleet answer differs from the single-engine reference")
    if rollup["shards_down"]:
        outcome.check_failures.append(f"shards down: {rollup['shards_down']}")
    outcome.require_pool_off(rollup["execution"])


def finish(ctx: Context, outcome: Outcome) -> None:
    ctx.connection.close()
    ctx.admin.close()
    ctx.stop_fleet()
