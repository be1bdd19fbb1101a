"""Per-layer self time, measured by wrapping public functions of ``repro``.

Nothing in ``src/`` changes: :func:`install` replaces each function named in
:data:`LAYERS` with a wrapper that times the call.  A layer's *self* time is
its wall time minus the wall time of wrapped calls made inside it, so the
self times of one call tree add up to the wall time of its outermost call.
Counts (stores, merges, epochs, BMU candidates) are read off the wrapped
call's arguments and result, where the work happened.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable


def _som_fit_name(args: tuple, kwargs: dict, result: Any) -> str:
    mode = kwargs.get("mode", "sequential")
    if mode == "sequential":
        return "som.fit.sequential"
    return f"som.fit.{kwargs.get('bmu_strategy', 'exact')}"


def _som_fit_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    samples = len(args[1])
    units = result.grid.num_units
    epochs = result.epochs_trained
    counts = {"epochs": epochs, "samples": samples, "units": units}
    if kwargs.get("mode", "sequential") == "sequential":
        counts["steps"] = epochs * samples
    else:
        # Exact search scores every (sample, unit) pair once per epoch.
        counts["exact_distance_evals"] = epochs * samples * units
    stats = result.bmu_stats
    if stats:
        counts["bmu_calls"] = stats["calls"]
        counts["bmu_candidates"] = stats["candidates"] + stats["exhaustive"]
        counts["bmu_fallbacks"] = stats["fallbacks"]
        counts["bmu_pair_total"] = stats["pair_total"]
        counts["bmu_pruned_pairs"] = stats["pruned_pairs"]
    return counts


def _cluster_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    dendrogram = result["dendrogram"]
    leaves = dendrogram.num_leaves
    merges = len(dendrogram.merges)
    # Every merge re-masks and argmins the full leaves x leaves matrix.
    return {"merges": merges, "cells_scanned": merges * leaves * leaves}


def _disk_get_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"hits": int(result is not None), "misses": int(result is None)}


def _disk_put_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"stores": int(bool(result))}


def _pipeline_name(args: tuple, kwargs: dict, result: Any) -> str:
    computed = result.run_report.cache_misses if result.run_report else 1
    return "engine.pipeline" if computed else "engine.pipeline_replay"


def _analyze_name(args: tuple, kwargs: dict, result: Any) -> str:
    computed = result["report"]["cache_misses"]
    return "engine.analyze_compute" if computed else "engine.memo_replay"


def _analyze_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    report = result["report"]
    return {"memo_hits": report["cache_hits"], "memo_misses": report["cache_misses"]}


def _encode_name(args: tuple, kwargs: dict, result: Any) -> str:
    payload = args[1] if len(args) > 1 else None
    kind = payload.get("kind", "") if isinstance(payload, dict) else ""
    return {
        "service-score": "service.encode_score",
        "service-analyze": "service.encode_analyze",
    }.get(kind, "service.encode_other")


# (module, attribute path, layer name, renamer, counter).  Modules not yet
# imported when install() runs are skipped, so tracing never adds imports.
LAYERS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("repro.cli", "main", "cli.main", None, None),
    ("repro.analysis.pipeline", "WorkloadAnalysisPipeline.run", "engine.pipeline", _pipeline_name, None),
    ("repro.analysis.sweep", "plan_pipeline_variants", "engine.plan", None, None),
    ("repro.engine.diskcache", "DiskCache.get", "engine.disk_read", None, _disk_get_counts),
    ("repro.engine.diskcache", "DiskCache.put", "engine.disk_write", None, _disk_put_counts),
    ("repro.characterization.stages", "CharacterizeStage.run", "characterization.characterize", None, None),
    ("repro.characterization.stages", "PreprocessStage.run", "characterization.preprocess", None, None),
    ("repro.som.stages", "SOMReduceStage.run", "som.reduce", None, None),
    ("repro.som.som", "SelfOrganizingMap.fit", "som.fit", _som_fit_name, _som_fit_counts),
    ("repro.cluster.stages", "ClusterStage.run", "cluster.fit", None, _cluster_counts),
    ("repro.core.stages", "ScoreCutsStage.run", "core.score_cuts", None, None),
    ("repro.analysis.stages", "RecommendStage.run", "analysis.recommend", None, None),
    ("repro.service.runtime", "ServiceRuntime.score", "core.score", None, None),
    ("repro.service.runtime", "ServiceRuntime.analyze", "engine.analyze", _analyze_name, _analyze_counts),
    ("repro.service.app", "validate_score_request", "service.validate_score", None, None),
    ("repro.service.app", "validate_analyze_request", "service.validate_analyze", None, None),
    ("repro.service.app", "json_response", "service.encode", _encode_name, None),
    ("repro.serialization", "analysis_result_to_dict", "serialization.to_dict", None, None),
)


class LayerRecorder:
    """Thread-safe accumulator of per-layer self time, calls and counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function: Callable, name: str, renamer, counter) -> Callable:
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            result = None
            ok = False
            try:
                result = function(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                layer = renamer(args, kwargs, result) if ok and renamer else name
                counts = counter(args, kwargs, result) if ok and counter else {}
                recorder._add(layer, elapsed - frame[0], counts)

        return wrapper

    def _add(self, layer: str, self_seconds: float, counts: dict[str, float]) -> None:
        with self._lock:
            self.self_seconds[layer] = self.self_seconds.get(layer, 0.0) + self_seconds
            self.calls[layer] = self.calls.get(layer, 0) + 1
            for key, value in counts.items():
                full = f"{layer}.{key}"
                self.counts[full] = self.counts.get(full, 0) + value

    def install(self) -> "LayerRecorder":
        """Wrap every listed function whose module is already imported."""
        for module_name, path, name, renamer, counter in LAYERS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner: object = module
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, renamer, counter))
            self._undo.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def snapshot(self) -> dict[str, dict]:
        with self._lock:
            return {
                "self_seconds": dict(self.self_seconds),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    def reset(self) -> None:
        with self._lock:
            self.self_seconds.clear()
            self.calls.clear()
            self.counts.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


def import_for(argv: list[str]) -> None:
    """Import the modules a CLI command loads lazily, so they can be wrapped."""
    importlib.import_module("repro.cli")
    if "sweep" in argv:
        importlib.import_module("repro.analysis.sweep")
    if "serve" in argv:
        for name in ("repro.service.app", "repro.service.runtime", "repro.serialization"):
            importlib.import_module(name)
