"""Generic stage-graph pipeline engine.

The paper's workflow (characterize → preprocess → SOM-reduce →
cluster → score → recommend) is a linear instance of a general shape:
named stages consuming and producing named artifacts.  This package
provides that shape as reusable machinery:

* :class:`~repro.engine.stage.Stage` — the unit of work: declared
  inputs/outputs, fingerprintable params, a ``run(ctx)`` body;
* :class:`~repro.engine.store.ArtifactStore` — the per-run namespace
  of intermediate artifacts with provenance fingerprints;
* :class:`~repro.engine.executor.PipelineEngine` — topological
  execution with cross-run memoization: re-running with one changed
  knob recomputes only the stages downstream of the change;
* :class:`~repro.engine.executor.RunReport` — per-stage wall time,
  cache hit/miss and artifact sizes, exposed on every result;
* :class:`~repro.engine.diskcache.DiskCache` — a persistent,
  content-addressed backing store for the stage cache, so fresh
  processes still skip already-computed stages;
* :func:`~repro.engine.executor.precompute_stage_keys` — every stage's
  cache key without executing anything, which is how
  ``repro-hmeans sweep --dry-run`` predicts disk hits.

Sweeps over pipeline variants run in one process on one engine (see
:mod:`repro.analysis.sweep`).

The six paper stages are implemented beside their subsystems
(:mod:`repro.characterization.stages`, :mod:`repro.som.stages`,
:mod:`repro.cluster.stages`, :mod:`repro.core.stages`,
:mod:`repro.analysis.stages`) and assembled by
:class:`repro.analysis.pipeline.WorkloadAnalysisPipeline`, which is a
thin façade over this engine.
"""

from repro.engine.diskcache import DEFAULT_MAX_BYTES, DiskCache, DiskCacheInfo
from repro.engine.executor import (
    EngineRun,
    PipelineEngine,
    RunReport,
    StageStats,
    precompute_stage_keys,
    run_single,
)
from repro.engine.fingerprint import combine, fingerprint
from repro.engine.hostinfo import available_cpus
from repro.engine.stage import FunctionStage, RunContext, Stage
from repro.engine.store import (
    Artifact,
    ArtifactStore,
    CacheInfo,
    StageCache,
    approx_size,
)

__all__ = [
    "Stage",
    "FunctionStage",
    "RunContext",
    "Artifact",
    "ArtifactStore",
    "StageCache",
    "CacheInfo",
    "approx_size",
    "fingerprint",
    "combine",
    "PipelineEngine",
    "EngineRun",
    "RunReport",
    "StageStats",
    "run_single",
    "precompute_stage_keys",
    "DiskCache",
    "DiskCacheInfo",
    "DEFAULT_MAX_BYTES",
    "available_cpus",
]
