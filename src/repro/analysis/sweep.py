"""Pipeline variant sweeps: planned, deduped, then fanned out.

A :class:`PipelineVariant` is a picklable recipe for one
:class:`~repro.analysis.pipeline.WorkloadAnalysisPipeline`
configuration — the knobs a sweep actually varies (linkage, SOM
geometry, characterization, machine).  Sweeps run in two phases:

* :func:`plan_pipeline_variants` precomputes every variant's stage
  cache keys (:func:`repro.engine.executor.precompute_stage_keys` —
  no execution required), probes them against the shared
  :class:`~repro.engine.diskcache.DiskCache`, prices the remaining
  compute with ledger-fed stage costs, dedups variants whose full
  fingerprint chains coincide, and picks serial vs parallel plus a
  worker count clamped to :func:`~repro.engine.hostinfo.available_cpus`;
* :func:`run_pipeline_variants` executes the plan through
  :class:`~repro.engine.fanout.SweepScheduler`: pool-worthy variants
  fork, duplicates and fully-cached variants replay in the parent.

Each worker process (or the single serial run) builds **one** engine
in its initializer; within a worker, variants share that engine's
in-memory memoization, and when ``cache_dir`` is given every engine
reads through the same persistent disk cache, so a stage computed by
any process — or any *previous* sweep over the same directory — is
computed exactly once.  The plan is pure data:
``repro-hmeans sweep --dry-run`` renders it without executing
anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.analysis.pipeline import AnalysisResult, WorkloadAnalysisPipeline
from repro.analysis.stages import suite_fingerprint
from repro.engine.diskcache import DiskCache
from repro.engine.executor import PipelineEngine, precompute_stage_keys
from repro.engine.fanout import (
    SweepScheduler,
    Variant,
    check_variants,
    derive_seeds,
)
from repro.engine.plan import (
    PlanEntry,
    StageCostModel,
    SweepPlan,
    SweepPlanner,
)
from repro.exceptions import MeasurementError
from repro.som.som import SOMConfig
from repro.workloads.suite import BenchmarkSuite

__all__ = [
    "PipelineVariant",
    "VariantRun",
    "plan_pipeline_variants",
    "run_pipeline_variants",
]


@dataclass(frozen=True)
class PipelineVariant:
    """One pipeline configuration of a sweep (picklable by design).

    ``seed=None`` lets the executor derive a deterministic per-variant
    seed; pin it (the CLI pins every variant to its ``--seed``) when
    the sweep should hold the characterization/SOM randomness fixed so
    variants stay comparable.  ``som_mode="batch"`` selects the
    deterministic batch SOM update.
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


@dataclass(frozen=True)
class VariantRun:
    """One executed variant: its spec, effective seed and full result."""

    variant: PipelineVariant
    seed: int
    result: AnalysisResult
    wall_seconds: float
    worker_pid: int

    @property
    def name(self) -> str:
        return self.variant.name


# Per-process state, installed by the scheduler's initializer: one
# engine per worker process (so in-memory memoization spans the
# variants that worker handles) over the shared on-disk cache.
_WORKER_ENGINE: PipelineEngine | None = None
_WORKER_SUITE: BenchmarkSuite | None = None


def _init_worker(cache_dir: str | None, suite: BenchmarkSuite) -> None:
    global _WORKER_ENGINE, _WORKER_SUITE
    _WORKER_ENGINE = PipelineEngine(disk_cache=cache_dir)
    _WORKER_SUITE = suite


def _run_variant(params: Mapping[str, Any], seed: int) -> AnalysisResult:
    """Fan-out task body: run one variant on this process's engine."""
    spec: PipelineVariant = params["spec"]
    if _WORKER_ENGINE is None or _WORKER_SUITE is None:
        raise MeasurementError(
            "sweep worker used before initialization; run variants through "
            "run_pipeline_variants"
        )
    return spec.pipeline(seed, _WORKER_ENGINE).run(_WORKER_SUITE)


def plan_pipeline_variants(
    variants: Sequence[PipelineVariant],
    suite: BenchmarkSuite,
    *,
    workers: int | str | None = None,
    cache_dir: str | Path | None = None,
    base_seed: int = 11,
    ledger_path: str | Path | None = None,
    cost_model: StageCostModel | None = None,
    cpus: int | None = None,
) -> SweepPlan:
    """Plan (but do not run) a sweep: cache hits, dedup, mode, workers.

    Stage cache keys are precomputed from each variant's stage graph
    and the suite fingerprint — exactly the keys execution will use —
    and probed against the disk cache at ``cache_dir`` (no cache: no
    hit prediction, no dedup).  ``workers`` is ``None``/``"auto"`` for
    cost-model sizing or an explicit upper bound, clamped to available
    CPUs and runnable variants with a logged warning.  Stage costs
    come from the run ledger at ``ledger_path`` when given (falling
    back to the static table), or from an explicit ``cost_model``.
    """
    if not variants:
        raise MeasurementError("plan_pipeline_variants: no variants")
    check_variants(variants, "sweep")
    source = {"suite": suite_fingerprint(suite)}
    entries = [
        PlanEntry(
            name=variant.name,
            seed=seed,
            stage_keys=precompute_stage_keys(
                variant.pipeline(seed, None).stages(), source
            ),
        )
        for variant, seed in zip(variants, derive_seeds(variants, base_seed))
    ]
    planner = SweepPlanner(
        cost_model=(
            cost_model
            if cost_model is not None
            else StageCostModel.from_ledger(
                None if ledger_path is None else str(ledger_path)
            )
        ),
        disk_cache=None if cache_dir is None else DiskCache(cache_dir),
        cpus=cpus,
    )
    return planner.plan(entries, workers=workers)


def run_pipeline_variants(
    variants: Sequence[PipelineVariant],
    suite: BenchmarkSuite,
    *,
    workers: int | str | None = 1,
    cache_dir: str | Path | None = None,
    base_seed: int = 11,
    plan: SweepPlan | None = None,
    ledger_path: str | Path | None = None,
) -> list[VariantRun]:
    """Run every variant over ``suite``; results come back in order.

    Plans first (see :func:`plan_pipeline_variants` — pass ``plan`` to
    reuse one already built), then executes the plan: ``workers=1``
    (default) runs serially in-process, ``"auto"``/``None`` lets the
    cost model size the pool, and explicit counts are honored up to
    the available CPUs (clamped with a warning, never errored).
    Requests above 1 degrade to serial, with a warning, where ``fork``
    is unavailable — or when the cost model says forking costs more
    than it saves.  ``cache_dir`` points every worker's engine at one
    persistent disk cache; identical results whatever the mode — seeds
    are deterministic per variant, and deduped or fully-cached
    variants replay the same artifacts their computing twin wrote.
    A pool worker that dies raises :class:`~repro.exceptions.EngineError`
    naming the variants it lost; nothing is retried.
    """
    if not variants:
        raise MeasurementError("run_pipeline_variants: no variants")
    check_variants(variants, "sweep")
    if plan is None:
        plan = plan_pipeline_variants(
            variants,
            suite,
            workers=workers,
            cache_dir=cache_dir,
            base_seed=base_seed,
            ledger_path=ledger_path,
        )
    scheduler = SweepScheduler(
        _run_variant,
        initializer=_init_worker,
        initargs=(None if cache_dir is None else str(cache_dir), suite),
    )
    outcomes = scheduler.execute(
        plan,
        [
            Variant(name=v.name, params={"spec": v}, seed=v.seed)
            for v in variants
        ],
    )
    return [
        VariantRun(
            variant=variant,
            seed=outcome.seed,
            result=outcome.value,
            wall_seconds=outcome.wall_seconds,
            worker_pid=outcome.worker_pid,
        )
        for variant, outcome in zip(variants, outcomes)
    ]
