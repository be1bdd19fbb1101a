"""What ``import repro.cli`` loads: cold commands pay only for what they use.

No command forks a process pool (sweeps run in one process), only
``serve`` listens and only ``sweep`` sweeps, so the socket machinery
and the sweep module are imported where they run, not at start-up.
The check is module membership in a fresh interpreter, not a timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

DEFERRED = (
    "multiprocessing",
    "concurrent.futures",
    "socket",
    "repro.analysis.sweep",
)


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
