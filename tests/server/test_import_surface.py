"""What each process imports: the client and the router never load the engine.

A client, the fleet router and the shard launcher only frame, parse and
forward, so importing them must not pull in :mod:`repro.core.engine`; a
server loads the engine but neither scipy (the coverage loss imports its
kd-tree on the one branch that builds one) nor networkx (Chow-Liu is
plain Kruskal).  Each import runs in a fresh interpreter, because this
test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])
HEAVY = {"repro.core.engine", "scipy", "networkx"}


def modules_after(statement: str) -> set[str]:
    probe = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SOURCE_ROOT)
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return set(json.loads(completed.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "module", ["repro.client", "repro.fleet", "repro.fleet.router", "repro.fleet.boot"]
)
def test_client_and_router_do_not_load_the_engine(module):
    loaded = modules_after(f"import {module}")
    assert module in loaded
    assert not loaded & HEAVY, sorted(loaded & HEAVY)


def test_server_entrypoint_loads_neither_scipy_nor_networkx():
    loaded = modules_after("import repro.server.__main__")
    assert "repro.core.engine" in loaded
    assert not loaded & {"scipy", "networkx"}, sorted(loaded & {"scipy", "networkx"})


def test_server_package_still_exports_mosaic_server():
    loaded = modules_after(
        "from repro.server import MosaicServer\n"
        "from repro.server.server import MosaicServer as Defined\n"
        "assert MosaicServer is Defined"
    )
    assert "repro.core.engine" in loaded
    with pytest.raises(AttributeError, match="no attribute 'Missing'"):
        import repro.server

        repro.server.Missing
