"""A sweep whose pool loses a worker fails loudly instead of hanging.

Each case runs in a fresh interpreter under a hard ``subprocess``
timeout, so a scheduler that waits forever for a dead worker fails the
test instead of stalling the suite.  The child forks a real pool in
which one variant's task SIGKILLs its own process (or every worker's
initializer raises); the scheduler must answer with an
:class:`~repro.exceptions.EngineError` naming the lost variants, and
the CLI must turn that into exit status 1 with a ledger record that
says so.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine.fanout import fork_available
from repro.obs.ledger import RunLedger

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="platform lacks fork"
)

# Generous: each child finishes in about a second, so only a hang
# gets near this.
HARD_TIMEOUT_SECONDS = 60

_ROOT = Path(__file__).resolve().parents[2]

_SCHEDULER_CHILD = """
import os, signal, sys

from repro.engine.fanout import SweepScheduler, Variant
from repro.exceptions import EngineError
from tests.sweep_plans import hand_plan


def task(params, seed):
    if params.get("kill"):
        os.kill(os.getpid(), signal.SIGKILL)
    return seed


def failing_initializer():
    raise RuntimeError("initializer failed")


variants = [
    Variant(name, params={"kill": name == "v2"})
    for name in ("v0", "v1", "v2", "v3")
]
initializer = failing_initializer if sys.argv[1] == "initializer" else None
scheduler = SweepScheduler(task, initializer=initializer)
try:
    scheduler.execute(hand_plan(variants, workers=2), variants)
except EngineError as error:
    print(f"EngineError: {error}")
    sys.exit(3)
print("sweep returned")
"""

_CLI_CHILD = """
import os, signal, sys

import repro.analysis.sweep as sweep
import repro.engine.plan as plan

plan.available_cpus = lambda: 2
run_variant = sweep._run_variant


def killing_run_variant(params, seed):
    if params["spec"].name == "single":
        os.kill(os.getpid(), signal.SIGKILL)
    return run_variant(params, seed)


sweep._run_variant = killing_run_variant

from repro.cli import main

sys.exit(
    main(
        ["sweep", "--workers", "2", "--linkages", "complete,single",
         "--ledger", sys.argv[1]]
    )
)
"""


def _run_child(script: str, *args: str) -> subprocess.CompletedProcess:
    src = Path(repro.__file__).resolve().parents[1]
    env = {
        key: value for key, value in os.environ.items() if key != "REPRO_LEDGER"
    }
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(_ROOT)])
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=HARD_TIMEOUT_SECONDS,
        env=env,
        cwd=_ROOT,
    )


class TestSchedulerLostWorker:
    def test_sigkilled_worker_raises_engine_error_naming_the_variant(self):
        child = _run_child(_SCHEDULER_CHILD, "kill")
        assert child.returncode == 3, child.stdout + child.stderr
        assert "lost variants" in child.stdout
        assert "'v2'" in child.stdout

    def test_raising_initializer_raises_engine_error(self):
        child = _run_child(_SCHEDULER_CHILD, "initializer")
        assert child.returncode == 3, child.stdout + child.stderr
        assert "lost variants" in child.stdout
        for name in ("v0", "v1", "v2", "v3"):
            assert f"'{name}'" in child.stdout


class TestCliLostWorker:
    def test_sweep_exits_1_and_records_the_failure(self, tmp_path):
        ledger_path = tmp_path / "runs.jsonl"
        # Ledger history prices the per-linkage cluster stage above the
        # fork overhead, so the 2-CPU plan runs both variants in the pool.
        RunLedger(ledger_path).append(
            {
                "run_id": "history",
                "command": "sweep",
                "stages": [
                    {
                        "stage": "cluster",
                        "wall_seconds": 30.0,
                        "cache_source": "compute",
                    }
                ],
            }
        )
        child = _run_child(_CLI_CHILD, str(ledger_path))
        assert child.returncode == 1, child.stdout + child.stderr
        assert "error:" in child.stderr
        assert "lost variants" in child.stderr
        assert "'single'" in child.stderr
        last = RunLedger(ledger_path).records()[-1]
        assert last["command"] == "sweep"
        assert last["exit_code"] == 1
