"""Affinity-aware host introspection for run records.

``os.cpu_count()`` reports the machine's cores, not *this process's*
cores: under cgroup CPU sets, ``taskset``, or container runtimes the
process may be pinned to a subset.  The run ledger and the benchmarks
that archive host facts therefore record :func:`available_cpus`,
which honors the scheduling affinity mask when the platform exposes
it.
"""

from __future__ import annotations

import os

__all__ = ["available_cpus"]


def available_cpus() -> int:
    """CPUs this process may actually run on (always >= 1).

    Uses ``os.sched_getaffinity(0)`` where available (Linux); falls
    back to ``os.cpu_count()`` elsewhere (macOS, Windows), and to 1
    when even that is unknown.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return max(1, os.cpu_count() or 1)
