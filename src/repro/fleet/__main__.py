"""``python -m repro.fleet``: boot a sharded engine fleet from the shell.

Starts ``--shards`` engine-server subprocesses (each a full
``python -m repro.server`` seeded identically), then serves a
:class:`~repro.fleet.router.FleetRouter` on ``--host``/``--port`` until
SIGINT/SIGTERM.  Shutdown is graceful end to end: the router drains
in-flight gathers, then the shards get SIGTERM and drain their own
queries::

    PYTHONPATH=src python -m repro.fleet --shards 4 --port 7745 \\
        --partition Purchases --partition Users:uid
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
import sys

from repro.fleet.boot import launch_shards, terminate_shards
from repro.fleet.partition import parse_partition_option
from repro.fleet.router import FleetRouter


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet", description="Mosaic sharded engine fleet"
    )
    parser.add_argument("--shards", type=int, default=2, help="engine shard count")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7745, help="router port")
    parser.add_argument(
        "--seed", type=int, default=0, help="engine RNG seed (every shard)"
    )
    parser.add_argument(
        "--init-sql",
        metavar="PATH",
        help="SQL script each shard executes before serving (replicated DDL)",
    )
    parser.add_argument(
        "--partition",
        action="append",
        default=[],
        metavar="TABLE[:COLUMN]",
        help="slice TABLE across shards (hash of COLUMN, else round-robin); "
        "repeatable; unlisted relations replicate to every shard",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve the router's Prometheus /metrics on this port "
        "(0 picks a free one)",
    )
    parser.add_argument(
        "--data-dir",
        default=os.environ.get("MOSAIC_DATA_DIR") or None,
        help="durable storage root: shard k persists under "
        "<data-dir>/shard-<k> (default: MOSAIC_DATA_DIR, or in-memory only)",
    )
    return parser


def _exit_on_signal(signal_number, frame) -> None:
    raise SystemExit(128 + signal_number)


async def run(args: argparse.Namespace) -> int:
    if args.shards < 1:
        print("--shards must be at least 1", file=sys.stderr)
        return 2
    partitions = {}
    for spec_text in args.partition:
        table, spec = parse_partition_option(spec_text)
        partitions[table] = spec
    # Until the router's loop takes SIGINT/SIGTERM over (below), a signal
    # ends the launch by exception, so the shards are killed, not orphaned.
    for signal_number in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signal_number, _exit_on_signal)
    shards = launch_shards(
        args.shards,
        seed=args.seed,
        init_sql=args.init_sql,
        data_dir=args.data_dir,
    )
    try:
        router = FleetRouter(
            [shard.address for shard in shards],
            args.host,
            args.port,
            partitions=partitions,
            metrics_port=args.metrics_port,
        )
        await router.start()
        # Handlers go in before the listening line: a SIGTERM sent as soon
        # as it is read must still reach terminate_shards below, or the
        # shards outlive the router.
        loop = asyncio.get_running_loop()
        for signal_number in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):  # non-unix loops
                loop.add_signal_handler(
                    signal_number, lambda: loop.create_task(router.stop())
                )
        print(
            f"mosaic fleet router listening on {router.host}:{router.port} "
            f"({args.shards} shard(s))",
            file=sys.stderr,
        )
        if router.metrics_exporter is not None:
            print(
                f"mosaic fleet metrics on "
                f"http://{router.host}:{router.metrics_exporter.port}/metrics",
                file=sys.stderr,
            )
        await router.serve_forever()
    finally:
        terminate_shards(shards)
    print("mosaic fleet stopped", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(run(args))
    except KeyboardInterrupt:  # pragma: no cover - signal race on teardown
        return 0


if __name__ == "__main__":
    sys.exit(main())
