"""Booting shard subprocesses: the process-management half of the fleet.

Each shard is an ordinary ``python -m repro.server`` subprocess bound to
an OS-assigned port (``--port 0``) and told its fleet identity via
``--shard-id``.  The parent learns the bound port by reading the
server's ``mosaic server listening on host:port`` stderr line, then
keeps a thread draining the rest of the shard's stderr to the parent's
(so the pipe never fills and shard logs stay visible).

Used by ``python -m repro.fleet`` and by the fleet tests/benchmarks,
which need to boot and kill real shard processes.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

from repro.errors import ServerError

_LISTENING_PREFIX = "mosaic server listening on "


class ShardProcess:
    """One engine-server subprocess plus its bound address."""

    def __init__(self, shard_id: int, process: subprocess.Popen, host: str, port: int):
        self.shard_id = shard_id
        self.process = process
        self.host = host
        self.port = port

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL — the fleet failure tests' shard-death hammer."""
        if self.alive():
            self.process.kill()
            self.process.wait(timeout=30)


def _shard_environment() -> dict[str, str]:
    # The shard subprocess must import the same repro package this
    # process runs, whether or not PYTHONPATH is exported.
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    if existing:
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = package_root + os.pathsep + existing
    else:
        env["PYTHONPATH"] = package_root
    return env


def launch_shard(
    shard_id: int,
    *,
    host: str = "127.0.0.1",
    seed: int = 0,
    init_sql: str | None = None,
    data_dir: str | None = None,
    startup_timeout: float = 60.0,
) -> ShardProcess:
    """Start one shard subprocess and wait for it to report its port.

    With ``data_dir``, the shard persists under ``<data_dir>/shard-<id>``
    — each shard owns its slice of the data, so each gets its own store.
    """
    command = [
        sys.executable,
        "-m",
        "repro.server",
        "--host",
        host,
        "--port",
        "0",
        "--seed",
        str(seed),
        "--shard-id",
        str(shard_id),
    ]
    if init_sql is not None:
        command += ["--init-sql", init_sql]
    if data_dir is not None:
        command += ["--data-dir", os.path.join(data_dir, f"shard-{shard_id}")]
    process = subprocess.Popen(
        command,
        stderr=subprocess.PIPE,
        text=True,
        env=_shard_environment(),
    )
    assert process.stderr is not None
    port: int | None = None
    try:
        # The listening line is the first line the server prints after
        # binding (init-sql notes may precede it).
        while True:
            line = process.stderr.readline()
            if not line:
                raise ServerError(
                    f"shard {shard_id} exited before reporting its port "
                    f"(exit status {process.poll()})"
                )
            if line.startswith(_LISTENING_PREFIX):
                _, _, port_text = line[len(_LISTENING_PREFIX) :].strip().rpartition(":")
                port = int(port_text)
                break
            sys.stderr.write(f"[shard {shard_id}] {line}")
    except BaseException:
        process.kill()
        process.wait(timeout=30)
        raise
    forwarder = threading.Thread(
        target=_forward_stderr, args=(shard_id, process.stderr), daemon=True
    )
    forwarder.start()
    return ShardProcess(shard_id, process, host, port)


def launch_shards(
    count: int,
    *,
    host: str = "127.0.0.1",
    seed: int = 0,
    init_sql: str | None = None,
    data_dir: str | None = None,
) -> list[ShardProcess]:
    """Boot ``count`` shards, tearing down any survivors if one fails.

    Every shard gets the *same* engine seed: replicated relations and
    pinned session indices then make each shard a bit-exact copy of the
    single-engine reference.
    """
    shards: list[ShardProcess] = []
    try:
        for shard_id in range(count):
            shards.append(
                launch_shard(
                    shard_id,
                    host=host,
                    seed=seed,
                    init_sql=init_sql,
                    data_dir=data_dir,
                )
            )
    except BaseException:
        for shard in shards:
            shard.kill()
        raise
    return shards


def terminate_shards(shards: list[ShardProcess], timeout: float = 30.0) -> None:
    """SIGTERM every shard, then wait for each (best effort, idempotent)."""
    for shard in shards:
        if shard.alive():
            shard.process.send_signal(signal.SIGTERM)
    for shard in shards:
        try:
            shard.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung shard
            shard.process.kill()
            shard.process.wait(timeout=timeout)


def _forward_stderr(shard_id: int, stream) -> None:
    try:
        for line in stream:
            sys.stderr.write(f"[shard {shard_id}] {line}")
    except ValueError:  # pragma: no cover - stream closed during shutdown
        pass
