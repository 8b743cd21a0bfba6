"""Repo-level pytest configuration: deadlock watchdog + shm leak check.

The engine's readers-writer lock means a locking bug shows up as a *hang*,
not a failure.  When ``MOSAIC_TEST_TIMEOUT`` is set (CI sets 120), a
``faulthandler.dump_traceback_later`` watchdog is re-armed at the start of
every test: a test exceeding the timeout dumps every thread's traceback to
stderr and hard-exits the process, so CI fails with a stack dump instead
of hanging until the job limit.  (``pytest-timeout`` would do the same;
this avoids the extra dependency.)

Local runs are unaffected unless the variable is exported.

The shared-memory leak check compares the ``mosaic-shm-*`` segments in
``/dev/shm`` before and after the whole run: every segment
``repro.relational.shm.share_relation`` creates must be unlinked by its
handle's release.  A leaked segment survives the process and
eats tmpfs until reboot, so it fails the suite loudly.
"""

from __future__ import annotations

import faulthandler
import os
import shutil
import sys
import tempfile

import pytest

_TIMEOUT_ENV = "MOSAIC_TEST_TIMEOUT"
_SHM_DIR = "/dev/shm"
_SHM_PREFIX = "mosaic-shm-"
_DATA_DIR_PREFIX = "mosaic-data-"


def _mosaic_segments() -> set[str]:
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:  # non-Linux: no /dev/shm to police
        return set()
    return {name for name in names if name.startswith(_SHM_PREFIX)}


@pytest.fixture(autouse=True, scope="session")
def _no_leaked_shm_segments():
    """Fail the run if any test leaks a mosaic shared-memory segment."""
    before = _mosaic_segments()
    yield
    leaked = _mosaic_segments() - before
    assert not leaked, (
        f"leaked shared-memory segments in {_SHM_DIR}: {sorted(leaked)}; "
        "some shared segment handle was never released"
    )


def _mosaic_data_dirs() -> set[str]:
    root = tempfile.gettempdir()
    try:
        names = os.listdir(root)
    except OSError:
        return set()
    return {
        os.path.join(root, name)
        for name in names
        if name.startswith(_DATA_DIR_PREFIX)
    }


@pytest.fixture(autouse=True, scope="session")
def _no_leaked_data_dirs():
    """Sweep ``mosaic-data-*`` temp directories the durable-storage tests
    create (including those orphaned by deliberate SIGKILL crash tests).

    Unlike the shm check this cleans up rather than failing: crash-safety
    tests kill processes mid-checkpoint on purpose, so an orphaned data
    directory is expected debris, not a bug — but it must not accumulate
    across runs.
    """
    before = _mosaic_data_dirs()
    yield
    leaked = _mosaic_data_dirs() - before
    for path in sorted(leaked):
        shutil.rmtree(path, ignore_errors=True)
    if leaked:
        print(
            f"\nconftest: swept {len(leaked)} leftover mosaic data dir(s)",
            file=sys.stderr,
        )


def _watchdog_seconds() -> float:
    try:
        return float(os.environ.get(_TIMEOUT_ENV, "0") or 0)
    except ValueError:
        return 0.0


def pytest_runtest_protocol(item, nextitem):
    timeout = _watchdog_seconds()
    if timeout > 0:
        # Re-arming replaces the previous timer, so the budget is per test.
        faulthandler.dump_traceback_later(timeout, exit=True)
    return None  # run the default protocol


def pytest_sessionfinish(session, exitstatus):
    if _watchdog_seconds() > 0:
        faulthandler.cancel_dump_traceback_later()
