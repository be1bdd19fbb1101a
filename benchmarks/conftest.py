"""Shared fixtures and report helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper and prints it
in the paper's layout (run ``pytest benchmarks/ --benchmark-only -s``
to see the output).  Timing goes through pytest-benchmark; expensive
stages (SOM training) use ``benchmark.pedantic`` with a single round so
the suite stays fast.

Performance is measured by ``perfbench/`` (see
``perfbench/README.md``), not here.
"""

from __future__ import annotations

import pytest

from repro.workloads.suite import BenchmarkSuite

SCIMARK = (
    "SciMark2.FFT",
    "SciMark2.LU",
    "SciMark2.MonteCarlo",
    "SciMark2.SOR",
    "SciMark2.Sparse",
)


@pytest.fixture(scope="session")
def paper_suite() -> BenchmarkSuite:
    """The Table I suite shared by every bench."""
    return BenchmarkSuite.paper_suite()


def emit(title: str, body: str) -> None:
    """Print one bench's regenerated artifact with a banner."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
