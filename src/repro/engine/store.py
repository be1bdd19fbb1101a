"""Artifact and memoization storage for the pipeline engine.

Two separate concerns live here:

* :class:`ArtifactStore` — the *per-run* namespace of named
  intermediate products (characteristic vectors, SOM, dendrogram, ...)
  with their fingerprints and approximate sizes (measured on first
  read);
* :class:`StageCache` — the *cross-run* memo of stage outputs keyed by
  the stage's cache key, with LRU eviction and hit/miss accounting.

A sweep that re-runs the pipeline with one changed knob gets a fresh
store each run but shares the cache, which is what lets unchanged
upstream stages be served without recomputation.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from repro.exceptions import EngineError

__all__ = [
    "Artifact",
    "ArtifactSizes",
    "ArtifactStore",
    "CacheInfo",
    "StageCache",
    "approx_size",
]


def _flat_size(value: Any, *, max_nodes: int = 4096) -> int:
    """Depth-free footprint estimate: walk the whole object graph flat.

    Used past the recursion cutoff of :func:`approx_size`, where the
    old behaviour — ``sys.getsizeof`` on the container alone — scored
    a dict of megabyte arrays as a few hundred bytes.  An iterative
    worklist (no recursion limit to respect) sums ``nbytes`` for every
    array and ``getsizeof`` for everything else, bounded by
    ``max_nodes`` visited objects so pathological graphs stay cheap.
    Shared references are counted once; cycles are safe.
    """
    total = 0
    seen: set[int] = set()
    stack = [value]
    while stack and len(seen) < max_nodes:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, np.ndarray):
            total += int(node.nbytes)
            continue
        total += sys.getsizeof(node, 64)
        if isinstance(node, Mapping):
            stack.extend(node.keys())
            stack.extend(node.values())
        elif isinstance(node, (list, tuple, set, frozenset)):
            stack.extend(node)
        else:
            inner = getattr(node, "__dict__", None)
            if (
                isinstance(inner, dict)
                and inner
                and id(inner) not in seen
                and len(seen) < max_nodes
            ):
                seen.add(id(inner))
                total += _instance_dict_size(inner)
                stack.extend(inner.keys())
                stack.extend(inner.values())
    return total


def _instance_dict_size(inner: dict[str, Any]) -> int:
    """``getsizeof`` of an instance's attribute dict, standing alone.

    CPython shares one key table among the attribute dicts of a
    class's instances and splits its size among them, so
    ``getsizeof(obj.__dict__)`` shrinks as sibling instances appear.
    A plain copy has its own key table: the same size whenever it is
    read, which lets sizes be measured lazily.
    """
    return sys.getsizeof(dict(inner), 64)


def approx_size(value: Any, *, _depth: int = 0) -> int:
    """Approximate in-memory footprint of an artifact, in bytes.

    Exact for numpy arrays (``nbytes``); containers are summed
    recursively a few levels deep, then by an iterative flat estimate
    (so deeply nested dict-of-arrays artifacts are not undercounted);
    everything else falls back to ``sys.getsizeof``.  Good enough to
    spot which stage produces the bulky artifacts.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if _depth >= 3:
        return _flat_size(value)
    if isinstance(value, Mapping):
        return sys.getsizeof(value, 64) + sum(
            approx_size(k, _depth=_depth + 1) + approx_size(v, _depth=_depth + 1)
            for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return sys.getsizeof(value, 64) + sum(
            approx_size(item, _depth=_depth + 1) for item in value
        )
    inner = getattr(value, "__dict__", None)
    if isinstance(inner, dict) and inner and _depth < 2:
        # Sized as a stand-alone copy; see _instance_dict_size.
        return sys.getsizeof(value, 64) + approx_size(dict(inner), _depth=_depth + 1)
    return sys.getsizeof(value, 64)


@dataclass(frozen=True)
class Artifact:
    """One named intermediate product of a run.

    ``size_bytes`` is :func:`approx_size` of the value, computed on
    first read and then cached: a run that never reports sizes never
    walks its artifacts.
    """

    name: str
    value: Any
    fingerprint: str
    producer: str

    @cached_property
    def size_bytes(self) -> int:
        """Approximate in-memory footprint of :attr:`value`, in bytes."""
        return approx_size(self.value)


class ArtifactSizes(Mapping[str, int]):
    """Read-only ``name -> size_bytes`` view over some artifacts.

    Sizes are read from the artifacts (so computed lazily, once each).
    Pickling ships a plain dict of the sizes: they are measured in the
    process that built the values, so a pool worker's report carries
    the same numbers a serial run's does.
    """

    __slots__ = ("_artifacts",)

    def __init__(self, artifacts: Iterable[Artifact]) -> None:
        self._artifacts = {artifact.name: artifact for artifact in artifacts}

    def __getitem__(self, name: str) -> int:
        return self._artifacts[name].size_bytes

    def __iter__(self) -> Iterator[str]:
        return iter(self._artifacts)

    def __len__(self) -> int:
        return len(self._artifacts)

    def __reduce__(self) -> tuple[Any, ...]:
        return (dict, (dict(self),))

    def __repr__(self) -> str:
        return f"ArtifactSizes({sorted(self._artifacts)})"


class ArtifactStore:
    """Mutable namespace of the artifacts produced during one run."""

    def __init__(self) -> None:
        self._artifacts: dict[str, Artifact] = {}

    def put(
        self,
        name: str,
        value: Any,
        fingerprint: str,
        *,
        producer: str = "source",
    ) -> Artifact:
        """Register an artifact; names are write-once within a run."""
        if name in self._artifacts:
            raise EngineError(
                f"ArtifactStore: artifact {name!r} already produced by "
                f"{self._artifacts[name].producer!r}"
            )
        artifact = Artifact(
            name=name,
            value=value,
            fingerprint=fingerprint,
            producer=producer,
        )
        self._artifacts[name] = artifact
        return artifact

    def get(self, name: str) -> Any:
        """The value of one artifact."""
        return self.artifact(name).value

    def artifact(self, name: str) -> Artifact:
        """The full :class:`Artifact` record for one name."""
        try:
            return self._artifacts[name]
        except KeyError:
            raise EngineError(
                f"ArtifactStore: no artifact named {name!r}; "
                f"available: {sorted(self._artifacts)}"
            ) from None

    def values(self) -> dict[str, Any]:
        """All artifact values, by name."""
        return {name: a.value for name, a in self._artifacts.items()}

    def names(self) -> tuple[str, ...]:
        """The registered artifact names, in insertion order."""
        return tuple(self._artifacts)

    def __contains__(self, name: object) -> bool:
        return name in self._artifacts

    def __repr__(self) -> str:
        return f"ArtifactStore(names={sorted(self._artifacts)})"


@dataclass(frozen=True)
class CacheInfo:
    """Cumulative memoization counters of a :class:`StageCache`."""

    hits: int
    misses: int
    entries: int


class StageCache:
    """LRU memo of stage outputs, keyed by stage cache key.

    Thread-safe: the scoring service shares one engine (and therefore
    one cache) across request handler threads, so the LRU reordering
    and the hit/miss counters are guarded by a lock.  Uncontended
    acquisition is tens of nanoseconds — invisible next to a stage.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise EngineError("StageCache: max_entries must be >= 1")
        self._max_entries = max_entries
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._lock = threading.RLock()

    def get(self, key: str) -> dict[str, Any] | None:
        """Cached outputs for ``key``, or ``None``; counts hit/miss."""
        with self._lock:
            outputs = self._entries.get(key)
            if outputs is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return outputs

    def put(self, key: str, outputs: Mapping[str, Any]) -> None:
        """Memoize one stage's outputs, evicting the LRU entry if full."""
        with self._lock:
            self._entries[key] = dict(outputs)
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def info(self) -> CacheInfo:
        """Current hit/miss/entry counters."""
        with self._lock:
            return CacheInfo(
                hits=self._hits, misses=self._misses, entries=len(self._entries)
            )

    def clear(self) -> None:
        """Drop every memoized entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
