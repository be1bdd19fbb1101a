"""What ``import repro.cli`` loads: cold commands must not pay for forking.

Only ``sweep`` with a parallel plan forks and only ``serve`` listens,
so the process-pool and socket machinery is imported where those run,
not at start-up.  The check is module membership in a fresh
interpreter, not a timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

DEFERRED = ("multiprocessing", "concurrent.futures", "socket")


def test_cli_import_defers_process_pool_and_socket_modules():
    src = Path(repro.__file__).resolve().parents[1]
    probe = (
        "import json, sys; import repro.cli; "
        f"print(json.dumps([m for m in {list(DEFERRED)!r} if m in sys.modules]))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    child = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        check=True,
    )
    assert json.loads(child.stdout) == []
