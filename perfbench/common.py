"""Shared helpers: paths, child environments, the host-speed reference,
import floors, statistics, the host record and the result line.

Module-level imports are stdlib-only, so a workload can time the first
import of numpy and of ``repro`` in this process.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS threads are pinned so results from differently configured hosts are
# never compared silently; on 2 CPUs the exact 1000x500 batch SOM read
# 1.75-2.6 s with OpenBLAS's default thread count and 1.92-2.0 s on one.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

# One interpreter start that runs the installed console script's body,
# exactly what ``repro-hmeans ARGS`` executes.
CLI_PREFIX = [
    sys.executable,
    "-c",
    "import sys; from repro.cli import main; sys.exit(main())",
]

FLOOR_REPEATS = 5


def source_present() -> bool:
    """Whether the checkout holds the program the benchmark runs."""
    return (SRC / "repro" / "__init__.py").is_file()


def work_dir(workload: str) -> Path:
    """A fresh per-run scratch directory inside the checkout."""
    path = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Environment for ``repro`` child processes: source tree, no ledger."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env.pop("REPRO_LEDGER", None)
    env.update(extra or {})
    return env


def timed_run(
    argv: list[str], *, cwd: Path, env: dict[str, str]
) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child to completion; returns (wall seconds, completed process)."""
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=120)
    return time.perf_counter() - started, done


class HostClock:
    """The host's speed over one run, from a fixed reference kernel.

    The kernel is a pure-Python loop (what the CLI mostly runs) plus,
    ``with_numpy``, a memory-bound numpy pass (what the 1000-workload
    analysis mostly runs).  The service workload does not use it: its
    requests are latency-bound and move less from run to run than the
    kernel does.  It lives here, so no change to
    ``repro`` can move it.  The host this benchmark was built on (2 shared
    CPUs) flips between a fast and a slow state every few seconds and
    drifts by up to 20% over tens of minutes.  The kernel is timed many
    times over a run, and :meth:`scale` is the nominal kernel wall over
    the run's mean one, so a wall times the scale reads as the time on a
    host where the kernel takes its nominal time.  The numpy pass stays
    out of the CLI workload because its arrays would raise this process's
    peak RSS, which CLI children inherit at exec.
    """

    # Roughly the kernel's mean on the host the benchmark was built on;
    # any fixed figure works, it only sets the scale.
    NOMINAL_MS = {False: 25.0, True: 55.0}

    def __init__(self, *, with_numpy: bool) -> None:
        self._arrays = None
        if with_numpy:
            import numpy as np

            matrix = np.random.default_rng(0).random((1000, 1000))
            self._arrays = (np, matrix, np.ones(1000, dtype=bool))
        self.nominal_ms = self.NOMINAL_MS[with_numpy]
        self._kernel()  # warm-up
        self.references: list[float] = []

    def _kernel(self) -> float:
        started = time.perf_counter()
        total = 0
        for index in range(500_000):
            total += index
        if self._arrays is not None:
            np, matrix, mask = self._arrays
            for _ in range(15):
                int(np.argmin(np.where(mask[:, None] & mask[None, :], matrix, np.inf)))
        return (time.perf_counter() - started) * 1e3

    def tick(self, count: int = 1) -> None:
        """Time the kernel ``count`` times, in ms."""
        self.references.extend(self._kernel() for _ in range(count))

    def scale(self) -> float:
        """Nominal kernel wall over this run's mean kernel wall."""
        return self.nominal_ms / statistics.mean(self.references)

    def detail(self) -> dict[str, object]:
        return dict(summary(self.references), mean=statistics.mean(self.references))


def import_floors(cwd: Path) -> dict[str, float]:
    """Interpreter start, ``import numpy`` and ``import repro.cli``, in ms."""
    env = child_env()
    samples: dict[str, list[float]] = {"pass": [], "numpy": [], "repro.cli": []}
    for _ in range(FLOOR_REPEATS):
        for name in samples:
            code = "pass" if name == "pass" else f"import {name}"
            wall, done = timed_run([CLI_PREFIX[0], "-c", code], cwd=cwd, env=env)
            if done.returncode == 0:
                samples[name].append(wall * 1e3)
    interp = median(samples["pass"])
    return {
        "cli.interp_ms": interp,
        "cli.import_numpy_ms": median(samples["numpy"]) - interp,
        "cli.import_ms": median(samples["repro.cli"]) - interp,
    }


def accounting(
    untraced: dict[str, float], traced: dict[str, float], accounted: dict[str, float]
) -> dict[str, float]:
    """Residual and tracing overhead of a traced run, summed over op kinds.

    ``untraced`` and ``traced`` are each kind's median wall in ms without
    and with the layer wrappers; ``accounted`` is what the layers explain.
    """
    total = sum(untraced.values())
    residual = sum(untraced[kind] - accounted[kind] for kind in untraced)
    overhead = sum(traced[kind] - untraced[kind] for kind in untraced)
    return {
        "unaccounted_ms": residual,
        "unaccounted_pct": residual / total * 100.0,
        "bench.trace_overhead_ms": overhead,
        "bench.trace_overhead_pct": overhead / total * 100.0,
    }


def median(values: list[float]) -> float:
    return statistics.median(values)


TRIM = 0.1


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values left after cutting ``TRIM`` of them at each end.

    The gated timings of every workload.  Within one run the host flips
    between a fast and a slow state, so op walls are bimodal and their
    median jumps between the modes with the share of each; the mean moves
    with that share smoothly, and the cut keeps one stall from moving it.
    Fewer than ten values lose none, so this is then their plain mean.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return statistics.mean(ordered[cut : len(ordered) - cut])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def summary(values: list[float]) -> dict[str, object]:
    """Median, trimmed mean and sample count, plus each percentile with ten
    samples beyond it."""
    out: dict[str, object] = {
        "n": len(values),
        "median": median(values),
        "trimmed_mean": trimmed_mean(values),
    }
    for name, q in (("p90", 0.90), ("p99", 0.99)):
        if len(values) * (1.0 - q) >= 10:
            out[name] = percentile(values, q)
    if len(values) <= 50:
        out["samples"] = [round(value, 3) for value in values]
    return out


def children_peak_rss_mb() -> float:
    """Peak resident set of the largest child waited for so far, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_record(seed: int) -> dict[str, object]:
    """Facts that decide whether two results may be compared."""
    import numpy

    from repro.engine.hostinfo import available_cpus

    record: dict[str, object] = {
        "nproc": os.cpu_count(),
        "available_cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": f"OPENBLAS_NUM_THREADS={BLAS_THREADS} (pinned by the benchmark)",
        "seed": seed,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        record["blas"] = "unknown"
    return record


class Outcome:
    """Operations attempted and failed, with why the first failures failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, problem: str = "") -> None:
        """Count one operation; a failed one records why."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


def emit(outcome: Outcome, metrics: dict[str, tuple[float, str]], detail: dict) -> None:
    """Print the detail record, then the one-line result."""
    detail = dict(detail, problems=outcome.problems)
    print("perfbench detail: " + json.dumps(detail, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": max(1, outcome.attempted),
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
