"""Shard launch: side-by-side boot, id order, one deadline, no survivors.

Every test boots real ``python -m repro.server`` subprocesses (or a
stand-in command that never reports a port) and checks that a failed
launch kills *and reaps* every process it spawned.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ServerError
from repro.fleet import boot
from repro.fleet.boot import launch_shards, terminate_shards

SILENT = [sys.executable, "-c", "import time; time.sleep(600)"]


@pytest.fixture()
def spawned(monkeypatch):
    """Every shard process the launch starts, in spawn order."""
    processes = []

    class Recording(boot.ShardProcess):
        def __init__(self, shard_id, process, host):
            processes.append(process)
            super().__init__(shard_id, process, host)

    monkeypatch.setattr(boot, "ShardProcess", Recording)
    yield processes
    for process in processes:  # never leak a shard, whatever failed
        if process.poll() is None:
            process.kill()
            process.wait()


def patch_command(monkeypatch, shard_id, replace):
    real = boot._shard_command

    def command(this_id, host, seed, init_sql, data_dir):
        argv = real(this_id, host, seed, init_sql, data_dir)
        return replace(argv) if this_id == shard_id else argv

    monkeypatch.setattr(boot, "_shard_command", command)


def test_shards_come_back_in_id_order_with_distinct_ports(spawned):
    shards = launch_shards(2, seed=3)
    try:
        assert [shard.shard_id for shard in shards] == [0, 1]
        assert len({shard.port for shard in shards}) == 2
        assert all(shard.alive() for shard in shards)
        assert [shard.process for shard in shards] == spawned
    finally:
        terminate_shards(shards)
    assert all(process.returncode is not None for process in spawned)


def test_shard_exiting_early_leaves_no_survivor(spawned, monkeypatch, tmp_path):
    missing = str(tmp_path / "missing.sql")
    patch_command(monkeypatch, 1, lambda argv: argv + ["--init-sql", missing])
    with pytest.raises(ServerError, match="shard 1 exited before reporting its port"):
        launch_shards(2)
    assert len(spawned) == 2
    assert all(process.returncode is not None for process in spawned)


def test_every_shard_failing_names_the_first(spawned, tmp_path):
    missing = str(tmp_path / "missing.sql")
    with pytest.raises(ServerError, match="shard 0 exited before reporting its port"):
        launch_shards(3, init_sql=missing)
    assert len(spawned) == 3
    assert all(process.returncode is not None for process in spawned)


def test_silent_shard_fails_the_launch_at_the_deadline(spawned, monkeypatch):
    # Shard 0 never reports; shard 1 boots and must be killed with it.
    patch_command(monkeypatch, 0, lambda argv: SILENT)
    monkeypatch.setattr(boot, "_STARTUP_TIMEOUT", 2.0)
    started = time.monotonic()
    with pytest.raises(ServerError, match="shard 0 did not report its port within 2 s"):
        launch_shards(2)
    assert 2.0 <= time.monotonic() - started < 12.0
    assert len(spawned) == 2
    assert all(process.returncode is not None for process in spawned)


def shard_children(router_pid):
    children = Path(f"/proc/{router_pid}/task/{router_pid}/children")
    if not children.exists():
        pytest.skip("needs /proc/<pid>/task/<tid>/children")
    return [int(pid) for pid in children.read_text().split()]


def kill_survivors(shard_pids):
    survivors = []
    for pid in shard_pids:
        try:
            command = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue  # reaped by the router, as it should be
        if b"repro.server" in command:  # an orphaned shard, not a reused pid
            os.kill(pid, signal.SIGKILL)
            survivors.append(pid)
    return survivors


def start_fleet():
    return subprocess.Popen(
        [sys.executable, "-m", "repro.fleet", "--shards", "2", "--port", "0"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=boot._shard_environment(),
    )


def test_sigterm_right_after_the_ready_line_reaps_the_shards():
    """The router's signal handlers are in place before it says it listens."""
    process = start_fleet()
    shard_pids = []
    try:
        for line in process.stderr:
            if line.startswith("mosaic fleet router listening on "):
                break
        shard_pids = shard_children(process.pid)
        assert len(shard_pids) == 2
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stderr.close()
    assert kill_survivors(shard_pids) == []


def test_sigterm_during_the_launch_kills_the_shards():
    """A signal while the shards still boot ends the launch, shards and all."""
    process = start_fleet()
    shard_pids = []
    try:
        deadline = time.monotonic() + 60
        while len(shard_pids) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
            shard_pids = shard_children(process.pid)
        assert len(shard_pids) == 2  # spawned; none can be up this soon
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 128 + signal.SIGTERM
        assert "router listening" not in process.stderr.read()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stderr.close()
    assert kill_survivors(shard_pids) == []
