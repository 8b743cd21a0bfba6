"""``python -m repro.server``: run a Mosaic wire server from the shell.

Boots an :class:`~repro.core.engine.Engine`, optionally executes a
bootstrap SQL script against a root session (DDL, marginals, INSERTs),
then serves until SIGINT/SIGTERM, draining in-flight queries on the way
down::

    PYTHONPATH=src python -m repro.server --port 7744 --init-sql boot.sql
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
import sys

from repro.core.engine import Engine
from repro.core.session import SessionConfig
from repro.server.server import MosaicServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server", description="Mosaic wire server"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7744)
    parser.add_argument("--seed", type=int, default=0, help="engine RNG seed")
    parser.add_argument(
        "--init-sql",
        metavar="PATH",
        help="SQL script executed on a root session before serving",
    )
    parser.add_argument("--max-connections", type=int, default=64)
    parser.add_argument(
        "--executor-workers",
        type=int,
        default=None,
        help="query executor threads (default: max(4, 2 x cpu))",
    )
    parser.add_argument(
        "--query-timeout",
        type=float,
        default=None,
        help="per-query wall-clock limit in seconds (default: none)",
    )
    parser.add_argument(
        "--shard-id",
        type=int,
        default=None,
        help="fleet shard identity (set by python -m repro.fleet)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve Prometheus /metrics on this port (0 picks a free one)",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        help="log queries at or above this execution time to stderr",
    )
    parser.add_argument(
        "--data-dir",
        default=os.environ.get("MOSAIC_DATA_DIR") or None,
        help="durable storage directory: restore on boot, checkpoint on "
        "SIGTERM (default: MOSAIC_DATA_DIR, or in-memory only)",
    )
    return parser


async def run(args: argparse.Namespace) -> int:
    engine = Engine(seed=args.seed, data_dir=args.data_dir)
    warm = False
    if args.data_dir:
        storage = engine.cache_stats()["storage"]
        warm = bool(storage["checkpoint"]) or storage["wal_replayed"] > 0
        print(
            "storage: restored "
            f"{storage['restored_tables']} table(s), "
            f"{storage['restored_samples']} sample(s), "
            f"{storage['restored_models']} model(s), replayed "
            f"{storage['wal_replayed']} WAL record(s) from {args.data_dir} "
            f"in {storage['restore_ms']:.1f}ms",
            file=sys.stderr,
        )
    if args.init_sql and warm:
        # The bootstrap script's DDL already lives in the restored catalog;
        # re-running it would only raise duplicate-relation errors.
        print("init: skipped (warm restore from --data-dir)", file=sys.stderr)
    elif args.init_sql:
        with open(args.init_sql) as handle:
            script = handle.read()
        session = engine.root_session(SessionConfig(seed=args.seed))
        for result in session.execute_script(script):
            for note in result.notes:
                print(f"init: {note}", file=sys.stderr)
    server = MosaicServer(
        engine,
        args.host,
        args.port,
        max_connections=args.max_connections,
        executor_workers=args.executor_workers,
        query_timeout=args.query_timeout,
        shutdown_engine=True,
        shard_id=args.shard_id,
        slow_query_ms=args.slow_query_ms,
        metrics_port=args.metrics_port,
    )
    await server.start()
    # Handlers go in before the listening line: whoever reads that line
    # may send SIGTERM at once, and it must stop the server gracefully.
    loop = asyncio.get_running_loop()
    for signal_number in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):  # non-unix event loops
            loop.add_signal_handler(
                signal_number, lambda: loop.create_task(server.stop())
            )
    print(f"mosaic server listening on {server.host}:{server.port}", file=sys.stderr)
    if server.metrics_exporter is not None:
        print(
            f"mosaic metrics on http://{server.host}:{server.metrics_exporter.port}/metrics",
            file=sys.stderr,
        )
    await server.serve_forever()
    print("mosaic server stopped", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(run(args))
    except KeyboardInterrupt:  # pragma: no cover - signal race on teardown
        return 0


if __name__ == "__main__":
    sys.exit(main())
