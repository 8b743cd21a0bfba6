"""served_mix: a wire server under two clients, a fifth of the load cache-missing."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter

from repro import MosaicDB
from repro.client import Connection
from repro.server.server import MosaicServer

from .. import inputs, procs
from ..harness import (
    OpLog,
    Outcome,
    engine_counts,
    guard_deadline,
    identical,
    latency_metrics,
    run_clients,
)

NAME = "served_mix"
WHY = (
    "Overhead-bound: subprocess server, 500-row sample, 2 connections; protocol, "
    "dispatch, parse and compile are the cost; 1 statement in 5 has a literal "
    "from 4,000 values, more than the caches hold."
)


@dataclass(frozen=True)
class Sizes:
    rows: int  # flights population; the biased sample is 5% of it
    connections: int
    ops_per_second: int  # per connection, per second of --seconds
    cold_literals: int  # distinct literals of the cache-missing family


FULL = Sizes(rows=10_000, connections=2, ops_per_second=650, cold_literals=4000)
QUICK = Sizes(rows=6_000, connections=2, ops_per_second=200, cold_literals=4000)

#: Hot statements between two cache-missing ones.
HOT_PER_COLD = 4


@dataclass
class Context:
    sizes: Sizes
    seed: int
    flights: inputs.Flights
    data_dir: str
    host_pid: int | None  # the server subprocess, None when hosted in threads
    port: int
    connections: list[Connection]
    stack: contextlib.ExitStack
    stop_server: object  # callable


def _hot(seed: int, client: int) -> list[tuple[str, object]]:
    """Two CLOSED statements and one SEMI-OPEN, all answered from caches.
    Each client is its own analyst: same shapes, its own texts."""
    closed = inputs.closed_statements(seed, variant=client)
    semi = inputs.semi_open_statements(seed, variant=client)
    return [("closed", closed[0]), ("closed", closed[1]), ("semi_open", semi[2])]


def _sql(item) -> str:
    if isinstance(item, inputs.ClosedStatement):
        return item.sql
    return inputs.with_visibility(item, "SEMI-OPEN")


def _client_stream(seed: int, sizes: Sizes, client: int, count: int) -> list[tuple[str, object]]:
    """One connection's operations: four hot statements, then one with a
    literal this run uses exactly once (each client owns its own slice of
    the seeded literal list)."""
    hot = inputs.round_robin([_hot(seed, client)], count, seed + client)
    literals = inputs.cold_literals(seed, sizes.cold_literals)[client :: sizes.connections]
    stream = []
    cold_used = 0
    for position in range(count):
        if position % (HOT_PER_COLD + 1) == HOT_PER_COLD:
            literal = literals[cold_used % len(literals)]
            cold_used += 1
            stream.append(("closed", inputs.cold_closed_statement(literal)))
        else:
            stream.append(hot[position])
    return stream


def statement_stream(seed: int, sizes: Sizes, count: int) -> list[tuple[str, str]]:
    return [(c, _sql(item)) for c, item in _client_stream(seed, sizes, 0, count)]


def setup(
    stack: contextlib.ExitStack, seed: int, sizes: Sizes, seconds: float, hosted: bool
) -> Context:
    flights = inputs.make_flights(seed, sizes.rows, 5.0)
    # The deployment's data directory is built first and closed cleanly,
    # so the server boots warm from a checkpoint, as a restarted one would.
    data_dir = procs.make_data_dir(stack)
    with MosaicDB(data_dir=data_dir) as builder:
        inputs.load_flights(builder, flights)
        for _, item in _hot(seed, 0):
            builder.execute(_sql(item))
    if hosted:
        # Traced runs host the server on threads of this process so its
        # functions can be wrapped; absolute numbers are attribution only.
        db = MosaicDB(data_dir=data_dir)
        stack.callback(db.close)
        server = MosaicServer(
            db.engine, port=0, session_config=db.session.config
        ).start_in_thread()
        stack.callback(server.stop_in_thread)
        host_pid, port, stop = None, server.port, server.stop_in_thread
    else:
        process = procs.start_server(stack, data_dir)
        host_pid, port, stop = process.pid, process.port, process.stop
    connections = []
    for _ in range(sizes.connections):
        connection = Connection("127.0.0.1", port, timeout=30.0)
        stack.callback(connection.close)
        connections.append(connection)
    for client, connection in enumerate(connections):
        for _, item in _hot(seed, client):
            connection.execute(_sql(item))
    return Context(sizes, seed, flights, data_dir, host_pid, port, connections, stack, stop)


def measure(ctx: Context, seconds: float, tracer=None) -> Outcome:
    sizes = ctx.sizes
    count = max(HOT_PER_COLD + 1, int(sizes.ops_per_second * seconds))
    logs = [OpLog(tracer) for _ in ctx.connections]
    before = ctx.connections[0].stats()["engine"]
    deadline = guard_deadline(seconds)
    pids = procs.engine_pids(ctx.host_pid)
    rss_reset = procs.reset_peak_rss(pids)  # the server's boot is set-up

    def client(index: int):
        connection, log = ctx.connections[index], logs[index]
        stream = _client_stream(ctx.seed, sizes, index, count)

        def body():
            for op_class, item in stream:
                log.run(op_class, item, connection.execute, _sql(item))
                if perf_counter() > deadline:
                    break

        return body

    wall = run_clients([client(i) for i in range(len(ctx.connections))])
    peak_rss = procs.peak_rss_mb(pids)
    after = ctx.connections[0].stats()["engine"]
    log = OpLog()
    for part in logs:
        log.extend(part)

    outcome = Outcome(log=log, wall_s=wall, throughput_ops=0)
    outcome.metrics["peak_rss_mb"] = peak_rss
    outcome.details["peak_rss_reset"] = rss_reset
    _check(ctx, outcome, after)
    outcome.throughput_ops = len(log.of("closed", "semi_open"))
    outcome.metrics.update(latency_metrics(log, "closed", "closed"))
    outcome.metrics.update(latency_metrics(log, "semi_open", "semi_open"))
    outcome.counts.update(engine_counts(before, after))
    outcome.details["sample_rows"] = ctx.flights.sample.num_rows
    outcome.details["ops_per_connection"] = count
    outcome.details["hosting"] = "threads" if ctx.host_pid is None else "subprocess"
    return outcome


def _check(ctx: Context, outcome: Outcome, after: dict) -> None:
    """Every wire answer must carry the bits an in-process engine, built
    from the same inputs, gives for the same statement."""
    log = outcome.log
    with MosaicDB() as reference:
        inputs.load_flights(reference, ctx.flights)
        expected: dict[str, object] = {}
        for op in log.ops:
            if op.error is not None:
                continue
            sql = _sql(op.key)
            want = expected.get(sql)
            if want is None:
                want = expected[sql] = reference.execute(sql)
            if not identical(op.result, want):
                log.fail(op, "wire answer differs from the in-process reference engine")
    outcome.require_pool_off(after["execution"])


def finish(ctx: Context, outcome: Outcome) -> None:
    for connection in ctx.connections:
        connection.close()
    ctx.stop_server()
