"""Pipeline variant sweeps: every variant in order on one engine.

A :class:`PipelineVariant` is a recipe for one
:class:`~repro.analysis.pipeline.WorkloadAnalysisPipeline`
configuration — the knobs a sweep actually varies (linkage, SOM
geometry, characterization, machine).

* :func:`run_pipeline_variants` runs the variants in order, in this
  process, on **one** :class:`~repro.engine.executor.PipelineEngine`.
  The engine's memo computes a stage shared by several variants (the
  characterize, preprocess and reduce stages of a linkage sweep) once,
  and with ``cache_dir`` its :class:`~repro.engine.diskcache.DiskCache`
  replays every stage an earlier run stored.  Spans, metrics and
  ledger stage records go to the ambient tracer, registry and
  recorder, under one ``sweep`` span with a ``sweep.variant`` child
  per variant.
* :func:`plan_pipeline_variants` answers ``repro-hmeans sweep
  --dry-run`` without executing anything: per variant, the stage keys
  execution will use (:func:`~repro.engine.executor.precompute_stage_keys`),
  the stages already on disk and the stages shared with an earlier
  variant.

Sweeps stay in one process because the paper suite's per-variant work
(cluster, score, recommend) takes milliseconds, far less than forking
a worker costs; see ``docs/SCHEDULING.md`` for the measurement.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from repro.analysis.pipeline import AnalysisResult, WorkloadAnalysisPipeline
from repro.analysis.stages import suite_fingerprint
from repro.engine.diskcache import DiskCache
from repro.engine.executor import PipelineEngine, precompute_stage_keys
from repro.exceptions import EngineError, MeasurementError
from repro.obs.trace import current_tracer
from repro.som.som import SOMConfig
from repro.workloads.suite import BenchmarkSuite

__all__ = [
    "PipelineVariant",
    "VariantRun",
    "VariantPlan",
    "SweepPlan",
    "derive_seed",
    "derive_seeds",
    "plan_pipeline_variants",
    "run_pipeline_variants",
]


@dataclass(frozen=True)
class PipelineVariant:
    """One pipeline configuration of a sweep.

    ``seed=None`` lets the sweep derive a deterministic per-variant
    seed (:func:`derive_seed`); pin it (the CLI pins every variant to
    its ``--seed``) when the sweep should hold the characterization/SOM
    randomness fixed so variants stay comparable.  ``som_mode="batch"``
    selects the deterministic batch SOM update.
    """

    name: str
    characterization: str = "sar"
    machine: str | None = "A"
    linkage: str = "complete"
    som_rows: int = 8
    som_columns: int = 8
    cluster_counts: tuple[int, ...] = tuple(range(2, 9))
    alignment_group: tuple[str, ...] | None = None
    seed: int | None = None
    som_mode: str = "sequential"
    bmu_strategy: str = "exact"

    def pipeline(self, seed: int, engine: PipelineEngine | None) -> WorkloadAnalysisPipeline:
        """Materialize the configured pipeline for one concrete seed."""
        return WorkloadAnalysisPipeline(
            characterization=self.characterization,
            machine=self.machine,
            som_config=SOMConfig(
                rows=self.som_rows, columns=self.som_columns, seed=seed
            ),
            cluster_counts=self.cluster_counts,
            alignment_group=self.alignment_group,
            linkage=self.linkage,
            seed=seed,
            engine=engine,
            som_mode=self.som_mode,
            som_bmu_strategy=self.bmu_strategy,
        )


def derive_seed(base_seed: int, index: int, name: str) -> int:
    """Deterministic per-variant seed: stable across runs.

    Hash-derived (not ``base_seed + index``) so reordering or renaming
    variants changes seeds loudly instead of silently shifting them
    onto each other.
    """
    digest = hashlib.sha256(
        f"{base_seed}:{index}:{name}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big")


def derive_seeds(
    variants: Sequence[PipelineVariant], base_seed: int
) -> list[int]:
    """Each variant's effective seed: its own, or the derived default."""
    return [
        variant.seed
        if variant.seed is not None
        else derive_seed(base_seed, index, variant.name)
        for index, variant in enumerate(variants)
    ]


def _check_variants(variants: Sequence[PipelineVariant], caller: str) -> None:
    """Reject an empty sweep or one whose variant names repeat."""
    if not variants:
        raise MeasurementError(f"{caller}: no variants")
    names = [v.name for v in variants]
    if len(set(names)) != len(names):
        duplicated = sorted({n for n in names if names.count(n) > 1})
        raise EngineError(f"{caller}: duplicate variant names {duplicated}")


@dataclass(frozen=True)
class VariantRun:
    """One executed variant: its spec, effective seed and full result."""

    variant: PipelineVariant
    seed: int
    result: AnalysisResult
    wall_seconds: float

    @property
    def name(self) -> str:
        return self.variant.name


@dataclass(frozen=True)
class VariantPlan:
    """What a sweep would do for one variant, predicted without running.

    ``stage_keys`` maps stage name to cache key in execution order;
    ``on_disk`` names the stages whose key the disk cache already
    holds, and ``shared`` those an earlier variant of the same sweep
    runs first, so this variant's engine replays them from memory.
    """

    name: str
    seed: int
    stage_keys: Mapping[str, str]
    on_disk: tuple[str, ...] = ()
    shared: tuple[str, ...] = ()

    @property
    def fully_cached(self) -> bool:
        """Every stage predicted to come off disk."""
        return len(self.on_disk) == len(self.stage_keys)

    @property
    def to_compute(self) -> tuple[str, ...]:
        """Stages neither on disk nor run by an earlier variant."""
        return tuple(
            stage
            for stage in self.stage_keys
            if stage not in self.on_disk and stage not in self.shared
        )


@dataclass(frozen=True)
class SweepPlan:
    """The ``sweep --dry-run`` answer: one :class:`VariantPlan` per variant."""

    variants: tuple[VariantPlan, ...]

    def render(self) -> str:
        """Human-readable plan table."""
        width = max(len("variant"), *(len(v.name) for v in self.variants))
        lines = [
            f"sweep plan: {len(self.variants)} variant(s)",
            f"  {'variant':<{width}}  {'seed':>10}  {'on disk':<10}"
            f"  {'shared':<6}  decision",
        ]
        for variant in self.variants:
            total = len(variant.stage_keys)
            if variant.fully_cached:
                decision = "replay (cached)"
            elif variant.to_compute:
                decision = "compute " + ", ".join(variant.to_compute)
            else:
                decision = "replay (shared)"
            lines.append(
                f"  {variant.name:<{width}}  {variant.seed:>10}  "
                f"{f'disk {len(variant.on_disk)}/{total}':<10}  "
                f"{f'{len(variant.shared)}/{total}':<6}  {decision}"
            )
        return "\n".join(lines)


def plan_pipeline_variants(
    variants: Sequence[PipelineVariant],
    suite: BenchmarkSuite,
    *,
    cache_dir: str | Path | None = None,
    base_seed: int = 11,
) -> SweepPlan:
    """Predict (but do not run) a sweep: stage keys, disk hits, sharing.

    Stage cache keys are precomputed from each variant's stage graph
    and the suite fingerprint — exactly the keys execution will use —
    and probed against the disk cache at ``cache_dir`` (no cache: no
    disk hits).
    """
    _check_variants(variants, "plan_pipeline_variants")
    disk = None if cache_dir is None else DiskCache(cache_dir)
    source = {"suite": suite_fingerprint(suite)}
    seen: set[str] = set()
    plans = []
    for variant, seed in zip(variants, derive_seeds(variants, base_seed)):
        keys = precompute_stage_keys(
            variant.pipeline(seed, None).stages(), source
        )
        plans.append(
            VariantPlan(
                name=variant.name,
                seed=seed,
                stage_keys=keys,
                on_disk=tuple(
                    stage
                    for stage, key in keys.items()
                    if disk is not None and disk.contains(key)
                ),
                shared=tuple(
                    stage for stage, key in keys.items() if key in seen
                ),
            )
        )
        seen.update(keys.values())
    return SweepPlan(variants=tuple(plans))


def run_pipeline_variants(
    variants: Sequence[PipelineVariant],
    suite: BenchmarkSuite,
    *,
    cache_dir: str | Path | None = None,
    base_seed: int = 11,
    workers: int = 1,
) -> list[VariantRun]:
    """Run every variant over ``suite`` in order; results come back in order.

    All variants share one engine in this process, so a stage key
    several variants share is computed once, and ``cache_dir`` backs
    that engine with a persistent disk cache that later sweeps replay.
    Seeds are deterministic per variant (:func:`derive_seeds`).

    ``workers`` is kept only for the benchmark harness, which still
    passes ``workers=1``; any other value raises
    :class:`~repro.exceptions.MeasurementError`.
    """
    if workers != 1:
        raise MeasurementError(
            f"run_pipeline_variants: sweeps run in one process; "
            f"workers must be 1, got {workers!r}"
        )
    _check_variants(variants, "run_pipeline_variants")
    engine = PipelineEngine(disk_cache=cache_dir)
    tracer = current_tracer()
    runs = []
    with tracer.span("sweep", variants=len(variants)):
        for variant, seed in zip(variants, derive_seeds(variants, base_seed)):
            started = time.perf_counter()
            with tracer.span("sweep.variant", variant=variant.name, seed=seed):
                result = variant.pipeline(seed, engine).run(suite)
            runs.append(
                VariantRun(
                    variant=variant,
                    seed=seed,
                    result=result,
                    wall_seconds=time.perf_counter() - started,
                )
            )
    return runs
