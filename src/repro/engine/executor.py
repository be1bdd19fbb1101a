"""The stage-graph executor: topological scheduling + memoization.

:class:`PipelineEngine` runs a set of :class:`~repro.engine.stage.Stage`
objects over source artifacts.  Execution order is derived from the
declared inputs/outputs (the caller may pass stages in any order), and
each stage is memoized under a *cache key*::

    key = H(stage.name, stage.params, fingerprints of its inputs)

Input fingerprints are provenance hashes — ``H(producer key, name)``
for intermediate artifacts, content hashes for sources — so a change
to any upstream knob changes every downstream key, while a change to a
downstream knob (say, the linkage rule) leaves upstream keys intact
and their cached outputs reusable.

Every run is instrumented: each stage executes inside a tracing span
(``stage.<name>``, nested under an ``engine.run`` root span), and the
per-stage :class:`StageStats` — wall time, cache hit/miss, artifact
sizes — are built from that span's data and collected into a
:class:`RunReport` on the returned :class:`EngineRun`.  Optional hooks
observe each :class:`StageStats` as it is produced, stage timings and
cache hit/miss counters land in the ambient metrics registry, and a
``repro.engine`` logger narrates runs at INFO/DEBUG.  With no tracer
installed the span calls hit :data:`repro.obs.NULL_TRACER`'s no-op
fast path, so the instrumentation costs nothing when disabled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.engine.diskcache import DiskCache, DiskCacheInfo
from repro.engine.fingerprint import combine, fingerprint
from repro.engine.stage import RunContext, Stage
from repro.engine.store import ArtifactSizes, ArtifactStore, CacheInfo, StageCache
from repro.exceptions import EngineError
from repro.obs.ledger import current_recorder
from repro.obs.log import fmt_kv, get_logger
from repro.obs.metrics import MetricsRegistry, current_metrics
from repro.obs.trace import NullTracer, Tracer, current_tracer

_log = get_logger("engine")

__all__ = [
    "StageStats",
    "RunReport",
    "EngineRun",
    "PipelineEngine",
    "run_single",
    "precompute_stage_keys",
]

StageHook = Callable[["StageStats"], None]


@dataclass(frozen=True)
class StageStats:
    """Instrumentation record for one stage execution (or cache hit).

    ``cache_source`` says where the outputs came from: ``"memory"``
    (in-process memo), ``"disk"`` (persistent cache) or ``"compute"``
    (the stage actually ran).  ``artifact_sizes`` is a read-only
    :class:`~repro.engine.store.ArtifactSizes` view: each output is
    sized on first read, so runs that never report sizes skip it.
    """

    stage: str
    key: str
    cache_hit: bool
    wall_seconds: float
    artifact_sizes: Mapping[str, int] = field(default_factory=dict)
    cache_source: str = "compute"

    @property
    def total_bytes(self) -> int:
        """Summed approximate size of this stage's output artifacts."""
        return sum(self.artifact_sizes.values())


@dataclass(frozen=True)
class RunReport:
    """Per-stage instrumentation of one engine run."""

    stages: tuple[StageStats, ...]

    @property
    def total_seconds(self) -> float:
        """Wall time summed over all stages (cache hits are ~free)."""
        return sum(s.wall_seconds for s in self.stages)

    @property
    def cache_hits(self) -> int:
        """How many stages were served from the memo cache."""
        return sum(1 for s in self.stages if s.cache_hit)

    @property
    def cache_misses(self) -> int:
        """How many stages actually computed."""
        return sum(1 for s in self.stages if not s.cache_hit)

    def stats_for(self, stage_name: str) -> StageStats:
        """The stats record of one stage, by name."""
        for stats in self.stages:
            if stats.stage == stage_name:
                return stats
        raise EngineError(
            f"RunReport: no stage named {stage_name!r}; "
            f"ran: {[s.stage for s in self.stages]}"
        )

    def summary(self) -> str:
        """Human-readable per-stage table (used by reports and the CLI)."""
        width = max((len(s.stage) for s in self.stages), default=5)
        lines = [
            f"  {'stage':<{width}}  {'wall':>9}  {'cache':<6}  {'output bytes':>12}"
        ]
        for s in self.stages:
            cache = "miss" if s.cache_source == "compute" else s.cache_source
            lines.append(
                f"  {s.stage:<{width}}  {s.wall_seconds * 1e3:7.1f}ms  "
                f"{cache:<6}  {s.total_bytes:>12,}"
            )
        lines.append(
            f"  total {self.total_seconds * 1e3:.1f}ms, "
            f"{self.cache_hits} cache hit(s), {self.cache_misses} miss(es)"
        )
        return "\n".join(lines)


class EngineRun:
    """The product of one :meth:`PipelineEngine.run`: artifacts + stats."""

    def __init__(self, store: ArtifactStore, report: RunReport) -> None:
        self._store = store
        self.report = report

    def artifact(self, name: str) -> Any:
        """The value of one named artifact (source or stage output)."""
        return self._store.get(name)

    @property
    def artifacts(self) -> dict[str, Any]:
        """Every artifact value of the run, by name."""
        return self._store.values()

    @property
    def store(self) -> ArtifactStore:
        """The underlying artifact store (fingerprints, sizes, producers)."""
        return self._store

    def __repr__(self) -> str:
        return (
            f"EngineRun(artifacts={sorted(self._store.names())}, "
            f"hits={self.report.cache_hits}, misses={self.report.cache_misses})"
        )


class PipelineEngine:
    """Executes stage graphs with cross-run memoization.

    Parameters
    ----------
    cache:
        ``True`` (default) memoizes stage outputs across runs, so a
        sweep that varies one knob only recomputes the affected
        downstream stages.  ``False`` disables memoization entirely
        (including the disk cache).
    max_cache_entries:
        LRU capacity of the memo, counted in stages.
    disk_cache:
        Persistent backing store for the memo: a
        :class:`~repro.engine.diskcache.DiskCache`, or a directory
        path to build one in.  Lookups read through memory first,
        then disk; computed outputs are written to both, so a fresh
        process re-running a known pipeline skips every stage.
        ``None`` (default) keeps memoization in-memory only.
    hooks:
        Callables invoked with each :class:`StageStats` as stages
        finish — e.g. a progress printer or a metrics exporter.  A
        hook object that additionally exposes a
        ``stage_started(stage_name, key)`` method is notified *before*
        each stage executes as well; the scoring service uses this
        pair to stream live per-stage progress events.
    tracer:
        Tracer to record ``engine.run`` / ``stage.*`` spans on.  The
        default (``None``) resolves :func:`repro.obs.current_tracer`
        at each run, so ``with use_tracer(...):`` around a run traces
        it without touching the engine.
    metrics:
        Registry for stage timings and cache counters; ``None``
        resolves :func:`repro.obs.current_metrics` at each run.
    """

    def __init__(
        self,
        *,
        cache: bool = True,
        max_cache_entries: int = 128,
        disk_cache: DiskCache | str | Path | None = None,
        hooks: Sequence[StageHook] = (),
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._cache = StageCache(max_cache_entries) if cache else None
        if disk_cache is None or not cache:
            self._disk: DiskCache | None = None
        elif isinstance(disk_cache, DiskCache):
            self._disk = disk_cache
        else:
            self._disk = DiskCache(disk_cache)
        self._hooks = tuple(hooks)
        self._tracer = tracer
        self._metrics = metrics

    def run(
        self,
        stages: Sequence[Stage],
        sources: Mapping[str, Any],
        *,
        source_fingerprints: Mapping[str, str] | None = None,
    ) -> EngineRun:
        """Execute ``stages`` over the given source artifacts.

        ``sources`` seeds the artifact namespace; fingerprints for them
        are taken from ``source_fingerprints`` when given and computed
        with :func:`~repro.engine.fingerprint.fingerprint` otherwise.
        Returns an :class:`EngineRun` with every artifact and the
        instrumentation report.
        """
        ordered = _topological_order(stages, set(sources))
        given = dict(source_fingerprints or {})
        store = ArtifactStore()
        for name, value in sources.items():
            store.put(name, value, given.get(name) or fingerprint(value))

        tracer = self._tracer if self._tracer is not None else current_tracer()
        metrics = (
            self._metrics if self._metrics is not None else current_metrics()
        )
        collected: list[StageStats] = []
        with tracer.span("engine.run", stages=len(ordered)) as run_span:
            for stage in ordered:
                collected.append(
                    self._run_stage(stage, store, tracer, metrics)
                )
            run_span.set(
                cache_hits=sum(1 for s in collected if s.cache_hit),
                cache_misses=sum(1 for s in collected if not s.cache_hit),
            )
        report = RunReport(stages=tuple(collected))
        if _log.isEnabledFor(20):  # INFO
            _log.info(
                fmt_kv(
                    "engine.run",
                    stages=len(ordered),
                    wall_ms=report.total_seconds * 1e3,
                    cache_hits=report.cache_hits,
                    cache_misses=report.cache_misses,
                )
            )
        return EngineRun(store, report)

    def _run_stage(
        self,
        stage: Stage,
        store: ArtifactStore,
        tracer: Tracer | NullTracer,
        metrics: MetricsRegistry,
    ) -> StageStats:
        """Execute (or replay) one stage inside a ``stage.<name>`` span."""
        input_prints = [store.artifact(name).fingerprint for name in stage.inputs]
        key = combine(stage.signature, *input_prints)

        for hook in self._hooks:
            started_hook = getattr(hook, "stage_started", None)
            if started_hook is not None:
                started_hook(stage.name, key)

        with tracer.span(f"stage.{stage.name}", stage=stage.name) as span:
            started = time.perf_counter()
            outputs = self._cache.get(key) if self._cache is not None else None
            source = "memory" if outputs is not None else "compute"
            if outputs is None and self._disk is not None:
                outputs = self._disk.get(key, stage=stage.name)
                if outputs is not None:
                    source = "disk"
                    # Promote so repeats within this process stay in RAM.
                    if self._cache is not None:
                        self._cache.put(key, outputs)
            if outputs is None:
                ctx = RunContext(
                    {name: store.get(name) for name in stage.inputs}
                )
                outputs = dict(stage.run(ctx))
                if set(outputs) != set(stage.outputs):
                    raise EngineError(
                        f"stage {stage.name!r}: declared outputs "
                        f"{sorted(stage.outputs)} but produced {sorted(outputs)}"
                    )
                if self._cache is not None:
                    self._cache.put(key, outputs)
                if self._disk is not None:
                    self._disk.put(key, outputs, stage=stage.name)
            hit = source != "compute"
            elapsed = time.perf_counter() - started
            span.set(cache_hit=hit, cache_source=source, key=key)

        # With a real tracer installed the report is built from span
        # data, so trace durations and RunReport agree exactly; the
        # no-op span falls back to the inline clock.
        wall = span.duration_seconds if getattr(span, "finished", False) else elapsed

        sizes = ArtifactSizes(
            store.put(name, outputs[name], combine(key, name), producer=stage.name)
            for name in stage.outputs
        )
        stats = StageStats(
            stage=stage.name,
            key=key,
            cache_hit=hit,
            wall_seconds=wall,
            artifact_sizes=sizes,
            cache_source=source,
        )

        metrics.histogram(
            "repro_engine_stage_seconds", stage=stage.name
        ).observe(wall)
        metrics.counter(
            "repro_engine_cache_hits_total"
            if hit
            else "repro_engine_cache_misses_total"
        ).inc()
        if _log.isEnabledFor(10):  # DEBUG
            _log.debug(
                fmt_kv(
                    "stage.done",
                    stage=stage.name,
                    wall_ms=wall * 1e3,
                    cache="hit" if hit else "miss",
                    output_bytes=stats.total_bytes,
                )
            )

        for hook in self._hooks:
            hook(stats)
        # The ambient run recorder (see repro.obs.ledger) persists
        # per-stage walls and cache sources across process exits; the
        # default NULL_RECORDER makes this free when no ledger is on.
        current_recorder().add_stage(stats)
        return stats

    def cache_info(self) -> CacheInfo:
        """Cumulative memo counters (zeros when caching is disabled)."""
        if self._cache is None:
            return CacheInfo(hits=0, misses=0, entries=0)
        return self._cache.info()

    @property
    def disk_cache(self) -> DiskCache | None:
        """The persistent backing store, when one is configured."""
        return self._disk

    def disk_cache_info(self) -> DiskCacheInfo | None:
        """Counters of the persistent store (``None`` without one)."""
        return self._disk.info() if self._disk is not None else None

    def clear_cache(self) -> None:
        """Forget every memoized stage output (memory and disk)."""
        if self._cache is not None:
            self._cache.clear()
        if self._disk is not None:
            self._disk.clear()


def _topological_order(
    stages: Sequence[Stage], available: set[str]
) -> list[Stage]:
    """Order stages so every input is produced before it is consumed."""
    producers: dict[str, Stage] = {}
    for stage in stages:
        for name in stage.outputs:
            if name in producers:
                raise EngineError(
                    f"stage graph: artifact {name!r} produced by both "
                    f"{producers[name].name!r} and {stage.name!r}"
                )
            if name in available:
                raise EngineError(
                    f"stage graph: stage {stage.name!r} would overwrite "
                    f"source artifact {name!r}"
                )
            producers[name] = stage

    ready = set(available)
    pending = list(stages)
    ordered: list[Stage] = []
    while pending:
        runnable = [s for s in pending if set(s.inputs) <= ready]
        if not runnable:
            missing = {
                s.name: sorted(set(s.inputs) - ready - set(producers))
                for s in pending
            }
            unproduced = {k: v for k, v in missing.items() if v}
            if unproduced:
                raise EngineError(
                    f"stage graph: unsatisfiable inputs {unproduced}"
                )
            raise EngineError(
                "stage graph: dependency cycle among "
                f"{sorted(s.name for s in pending)}"
            )
        # Keep the caller's relative order among simultaneously-ready
        # stages so runs are reproducible.
        nxt = runnable[0]
        pending.remove(nxt)
        ordered.append(nxt)
        ready.update(nxt.outputs)
    return ordered


def precompute_stage_keys(
    stages: Sequence[Stage],
    source_fingerprints: Mapping[str, str],
) -> dict[str, str]:
    """Every stage's cache key, computed without executing anything.

    Walks the graph in topological order, deriving each intermediate
    artifact's fingerprint as ``H(producer key, name)`` — exactly the
    provenance chain :meth:`PipelineEngine._run_stage` builds while
    executing — so the returned keys are the ones an actual run would
    probe the caches with.  This is what lets a scheduler predict
    cache hits and dedup identical variants *before* spawning workers.

    ``source_fingerprints`` must cover every source artifact the graph
    consumes (content hashes, e.g.
    :func:`repro.analysis.stages.suite_fingerprint`); unlike
    :meth:`PipelineEngine.run` there are no values to fall back on.
    The result is ordered by execution position.
    """
    ordered = _topological_order(stages, set(source_fingerprints))
    prints = dict(source_fingerprints)
    keys: dict[str, str] = {}
    for stage in ordered:
        missing = sorted(set(stage.inputs) - set(prints))
        if missing:
            raise EngineError(
                f"precompute_stage_keys: stage {stage.name!r} consumes "
                f"unfingerprinted sources {missing}"
            )
        key = combine(stage.signature, *[prints[name] for name in stage.inputs])
        keys[stage.name] = key
        for name in stage.outputs:
            prints[name] = combine(key, name)
    return keys


def run_single(stage: Stage, inputs: Mapping[str, Any]) -> dict[str, Any]:
    """Run one stage directly on in-memory inputs, bypassing the engine.

    No memoization, no fingerprinting — this is the escape hatch that
    keeps individual pipeline stage methods usable on their own.
    """
    missing = sorted(set(stage.inputs) - set(inputs))
    if missing:
        raise EngineError(f"run_single: stage {stage.name!r} missing {missing}")
    outputs = dict(stage.run(RunContext(dict(inputs))))
    if set(outputs) != set(stage.outputs):
        raise EngineError(
            f"stage {stage.name!r}: declared outputs {sorted(stage.outputs)} "
            f"but produced {sorted(outputs)}"
        )
    return outputs
