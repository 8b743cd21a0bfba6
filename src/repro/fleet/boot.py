"""Booting shard subprocesses: the process-management half of the fleet.

Each shard is an ordinary ``python -m repro.server`` subprocess bound to
an OS-assigned port (``--port 0``) and told its fleet identity via
``--shard-id``.  The parent learns the bound port by reading the
server's ``mosaic server listening on host:port`` stderr line: one thread
per shard reads its stderr, hands the port over when that line arrives
and forwards every other line to the parent's stderr (so the pipe never
fills and shard logs stay visible).

:func:`launch_shards` spawns every shard before it waits for any, so the
shards import and boot side by side, then collects the ports in shard-id
order under one deadline.  A shard that exits or stays silent past the
deadline fails the launch, and every shard spawned so far is killed and
reaped.

Used by ``python -m repro.fleet`` and by the fleet tests/benchmarks,
which need to boot and kill real shard processes.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.errors import ServerError

_LISTENING_PREFIX = "mosaic server listening on "
_STARTUP_TIMEOUT = 60.0  # seconds for a whole launch, not per shard


class ShardProcess:
    """One engine-server subprocess plus its bound address.

    A thread reads the shard's stderr for as long as it runs: it takes
    the port from the listening line and forwards every other line.
    ``port`` is ``None`` until :func:`launch_shards` has it.
    """

    def __init__(self, shard_id: int, process: subprocess.Popen, host: str):
        self.shard_id = shard_id
        self.process = process
        self.host = host
        self.port: int | None = None
        self._reported = threading.Event()  # the port line, or end of stream
        threading.Thread(target=self._read_stderr, daemon=True).start()

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

    def _read_stderr(self) -> None:
        # The pipe ends when the shard exits; this thread owns it, so it
        # closes it then.
        try:
            with self.process.stderr as stream:
                for line in stream:
                    if not self._reported.is_set() and line.startswith(_LISTENING_PREFIX):
                        address = line[len(_LISTENING_PREFIX) :].strip()
                        self.port = int(address.rpartition(":")[2])
                        self._reported.set()
                    else:
                        # Keep draining even once the parent's stderr is
                        # closed or gone: a shard that cannot write its log
                        # lines would stall or die of EPIPE.
                        with contextlib.suppress(ValueError, OSError):
                            sys.stderr.write(f"[shard {self.shard_id}] {line}")
        finally:
            self._reported.set()

    def _await_port(self, deadline: float) -> None:
        if not self._reported.wait(max(0.0, deadline - time.monotonic())):
            raise ServerError(
                f"shard {self.shard_id} did not report its port "
                f"within {_STARTUP_TIMEOUT:g} s"
            )
        if self.port is None:
            raise ServerError(
                f"shard {self.shard_id} exited before reporting its port "
                f"(exit status {self.process.poll()})"
            )


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


def _shard_command(
    shard_id: int, host: str, seed: int, init_sql: str | None, data_dir: str | None
) -> list[str]:
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
    return command


@contextlib.contextmanager
def _signals_held():
    """Hold SIGINT/SIGTERM back until the block is done, then raise them.

    A handler that raises while ``Popen`` waits for the child's exec
    leaves a running shard that no list holds; held here, the signal
    acts once the shard is in the list a failed launch kills.
    """
    if threading.current_thread() is not threading.main_thread():
        yield  # Python runs signal handlers on the main thread only
        return
    pending: list[int] = []
    previous = {
        number: signal.signal(number, lambda number, frame: pending.append(number))
        for number in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        yield
    finally:
        for number, handler in previous.items():
            signal.signal(number, handler)
        for number in pending:
            signal.raise_signal(number)


def launch_shards(
    count: int,
    *,
    host: str = "127.0.0.1",
    seed: int = 0,
    init_sql: str | None = None,
    data_dir: str | None = None,
) -> list[ShardProcess]:
    """Boot ``count`` shards side by side, tearing all down if one fails.

    Every shard gets the *same* engine seed: replicated relations and
    pinned session indices then make each shard a bit-exact copy of the
    single-engine reference.  With ``data_dir``, shard k persists under
    ``<data_dir>/shard-<k>`` — each shard owns its slice of the data, so
    each gets its own store.  The shards are returned in shard-id order.
    Raises :class:`ServerError` if a shard exits first or the launch has
    not heard from every shard within ``_STARTUP_TIMEOUT`` seconds; every
    spawned shard is then killed and reaped.
    """
    deadline = time.monotonic() + _STARTUP_TIMEOUT
    environment = _shard_environment()
    shards: list[ShardProcess] = []
    try:
        for shard_id in range(count):
            with _signals_held():
                process = subprocess.Popen(
                    _shard_command(shard_id, host, seed, init_sql, data_dir),
                    stderr=subprocess.PIPE,
                    text=True,
                    env=environment,
                )
                shards.append(ShardProcess(shard_id, process, host))
        for shard in shards:
            shard._await_port(deadline)
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
