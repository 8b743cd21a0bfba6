"""Processes and directories the benchmark owns, and their teardown.

Servers and fleets under test run as subprocesses so the load generator
and the program do not share an interpreter lock.  Everything started or
created here is registered on an :class:`contextlib.ExitStack` by the
caller, so a workload that fails half-way leaves no server process, data
directory or shared-memory segment behind.

All files live under ``.bench_build/mosaicbench/`` of the checkout (the
benchmark writes nowhere else); data directories keep the repo's
``mosaic-data-`` prefix.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import gc
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"
SCRATCH_DIR = REPO_ROOT / ".bench_build" / "mosaicbench"

#: Environment switches of the program; cleared so its defaults are in force.
PROGRAM_ENV_SWITCHES = (
    "MOSAIC_WORKERS",
    "MOSAIC_TRACE_SAMPLE",
    "MOSAIC_DATA_DIR",
    "MOSAIC_WAL_LIMIT_BYTES",
)

SERVER_READY = "mosaic server listening on "
FLEET_READY = "mosaic fleet router listening on "


def clear_program_switches() -> None:
    for name in PROGRAM_ENV_SWITCHES:
        os.environ.pop(name, None)


def program_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV_SWITCHES}
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def make_data_dir(stack: contextlib.ExitStack) -> str:
    """A fresh ``mosaic-data-*`` directory, removed when ``stack`` unwinds."""
    SCRATCH_DIR.mkdir(parents=True, exist_ok=True)
    path = tempfile.mkdtemp(prefix="mosaic-data-", dir=SCRATCH_DIR)
    stack.callback(_remove_data_dir, path)
    return path


def _remove_data_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    # Leave no empty scratch directories behind either (another run may
    # still be using them: rmdir refuses a directory that is not empty).
    for directory in (SCRATCH_DIR, SCRATCH_DIR.parent):
        with contextlib.suppress(OSError):
            directory.rmdir()


def directory_bytes(path: str, only: str | None = None) -> int:
    """Bytes of the files under ``path`` (of those named ``only``, if given)."""
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, files in os.walk(path)
        for name in files
        if only is None or name == only
    )


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("mosaic-shm-")}
    except OSError:
        return set()


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(pid: int) -> list[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children = [int(c) for c in handle.read().split()]
        except OSError:
            continue
        for child in children:
            found.append(child)
            found.extend(_descendants(child))
    return found


def engine_pids(host_pid: int | None = None, with_children: bool = False) -> list[int]:
    """The processes hosting the engine: ``host_pid`` (default: this
    process), optionally with its live descendants (a fleet's shards)."""
    pid = os.getpid() if host_pid is None else host_pid
    return [pid] + (_descendants(pid) if with_children else [])


def reset_peak_rss(pids: list[int]) -> bool:
    """Start each process's ``VmHWM`` over from its current resident set
    (Linux: ``5`` written to ``/proc/<pid>/clear_refs``), so that what
    :func:`peak_rss_mb` reads later is the peak of the measured phase and
    not of input generation, loading or boot.  ``False`` where the kernel
    refuses: the peak then covers the process's whole life."""
    try:
        for pid in pids:
            with open(f"/proc/{pid}/clear_refs", "w") as handle:
                handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb(pids: list[int]) -> float:
    """Peak resident set (``VmHWM``) of the processes, summed."""
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


@functools.lru_cache(maxsize=None)
def _malloc_trim():
    """glibc's ``malloc_trim``, or ``None`` under another C library."""
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def release_free_memory() -> None:
    """Collect garbage and hand the freed heap pages back to the kernel.

    Called before each reopen cycle: a restarted process starts with no
    heap to recycle and faults every page it allocates.  An in-process
    reopen otherwise finds the closed engine's pages on the allocator's
    free lists in some cycles and not in others, and restoring a 59 MB
    model took 100 ms or 145 ms accordingly.
    """
    gc.collect()
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


class ProgramProcess:
    """One ``python -m repro.<module>`` subprocess bound to a free port.

    The program is asked for port 0 and reports the port it was given on
    its stderr "listening" line; :meth:`start` waits for that line with a
    deadline.  :meth:`stop` sends SIGTERM, waits, then SIGKILLs.
    """

    def __init__(self, module: str, args: list[str], ready_prefix: str):
        self.module = module
        self.args = args
        self.ready_prefix = ready_prefix
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.stderr_tail: list[str] = []
        self.child_pids: list[int] = []  # see remember_shards
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self._reader: threading.Thread | None = None

    def start(self, deadline_s: float = 60.0) -> "ProgramProcess":
        self.process = subprocess.Popen(
            [sys.executable, "-m", self.module, "--host", "127.0.0.1", "--port", "0"]
            + self.args,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=program_env(),
            cwd=str(REPO_ROOT),
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            self.port = self._await_ready(deadline_s)
        except BaseException:
            self.stop()
            raise
        return self

    def _drain(self) -> None:
        assert self.process is not None and self.process.stderr is not None
        for line in self.process.stderr:
            self.stderr_tail.append(line.rstrip("\n"))
            del self.stderr_tail[:-40]
            self._lines.put(line)
        self._lines.put(None)

    def _await_ready(self, deadline_s: float) -> int:
        end = time.monotonic() + deadline_s
        while True:
            remaining = end - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"{self.module} did not report a port within {deadline_s:.0f}s; "
                    f"stderr tail: {self.stderr_tail[-5:]}"
                )
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"{self.module} exited with {self.process.poll()} before "
                    f"listening; stderr tail: {self.stderr_tail[-5:]}"
                )
            if line.startswith(self.ready_prefix):
                address = line[len(self.ready_prefix) :].split()[0]
                return int(address.rpartition(":")[2])

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def stop(self, grace_s: float = 15.0) -> int | None:
        """SIGTERM, wait ``grace_s``, SIGKILL.  Idempotent; returns the exit code."""
        process = self.process
        if process is None:
            return None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=grace_s)
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        if process.stderr is not None:
            process.stderr.close()
        return process.returncode


def start_server(stack: contextlib.ExitStack, data_dir: str) -> ProgramProcess:
    """``python -m repro.server`` warm-booted from ``data_dir``."""
    server = ProgramProcess("repro.server", ["--data-dir", data_dir], SERVER_READY)
    stack.callback(server.stop)
    return server.start()


def start_fleet(
    stack: contextlib.ExitStack, shards: int, partitions: list[str]
) -> ProgramProcess:
    """``python -m repro.fleet`` with ``shards`` shard subprocesses."""
    args = ["--shards", str(shards)]
    for partition in partitions:
        args += ["--partition", partition]
    fleet = ProgramProcess("repro.fleet", args, FLEET_READY)
    # The fleet's shards are *its* children: if the router dies without
    # reaping them, kill whatever is left of the process tree.
    stack.callback(_kill_orphans, fleet)
    stack.callback(fleet.stop)
    return fleet.start()


def _kill_orphans(fleet: ProgramProcess) -> None:
    killed = []
    for pid in fleet.child_pids:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                is_shard = b"repro.server" in handle.read()
        except OSError:
            continue  # already gone
        if is_shard:  # not a recycled pid
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
    _await_exit(killed, 10.0)


def _running(pid: int) -> bool:
    """Whether ``pid`` is still executing (a zombie awaiting its parent is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def _await_exit(pids: list[int], grace_s: float) -> list[int]:
    """Reap our own children among ``pids`` and poll the rest (grandchildren
    are another process's to reap); returns those still running at the deadline."""
    end = time.monotonic() + grace_s
    left = list(pids)
    while left:
        for pid in left:
            with contextlib.suppress(ChildProcessError, OSError):
                os.waitpid(pid, os.WNOHANG)
        left = [pid for pid in left if _running(pid)]
        if not left or time.monotonic() >= end:
            break
        time.sleep(0.01)
    return left


def stop_child_processes(grace_s: float = 10.0) -> None:
    """Stop every process still below this one and wait until each has ended.

    The servers and fleets are stopped by their ExitStacks; what is left is
    ``multiprocessing``'s resource tracker, which the first shared-memory
    segment starts (the traced ``closed_scan`` times ``shm.share_relation``).
    It ends only once it sees its pipe closed, that is some milliseconds
    *after* this process has exited, unless it is stopped and waited for
    here.  Anything else found is terminated, then killed.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        with contextlib.suppress(Exception):
            stop()  # closes the pipe and waits for the tracker
    for signal_number in (signal.SIGTERM, signal.SIGKILL):
        left = _await_exit(_descendants(os.getpid()), 0.0)
        if not left:
            return
        for pid in left:
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.kill(pid, signal_number)
        _await_exit(left, grace_s)


def remember_shards(fleet: ProgramProcess) -> None:
    """Record the fleet's shard pids while the router is alive, so teardown
    can reap them even if the router is killed first."""
    fleet.child_pids = _descendants(fleet.pid)
