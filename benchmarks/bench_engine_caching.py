"""Perf hook — what the stage caches and the fan-out executor buy.

Three comparisons over linkage/SOM parameter sweeps, all archived in
``results/BENCH_engine_caching.json``:

1. **memo cache** — one 7-variant sweep with the in-memory cache
   disabled vs on a shared caching engine (each variant recomputes
   only the stages downstream of its changed knob);
2. **disk cache** — the same sweep cold (empty ``DiskCache``) vs warm
   through a *fresh* engine over the populated directory, simulating
   a new process that computes nothing;
3. **fan-out** — a 5-linkage sweep serial vs planned with 4 requested
   workers over one shared disk cache.  Sweeps go through the
   plan/execute scheduler, so a single-CPU host *plans serial* instead
   of forking uselessly: the speedup is pinned ``>= 0.9`` everywhere
   (the old dumb pool scored ~0.25 here) and ``> 1`` is asserted only
   where real cores exist.  A third, fully warm sweep pins the dedup
   path: zero compute-source stages.

Prints the wall times and speedups, and archives the structured
numbers — per-stage timing histograms from the metrics registry, span
counts from the tracer, disk-cache counters, the fan-out plan's
verdicts — in the JSON.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import emit, write_bench_json
from repro.analysis.pipeline import WorkloadAnalysisPipeline
from repro.analysis.sweep import (
    PipelineVariant,
    plan_pipeline_variants,
    run_pipeline_variants,
)
from repro.engine import PipelineEngine, available_cpus
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.som.som import SOMConfig
from repro.viz.tables import format_table

_SOM = SOMConfig(rows=8, columns=8, steps_per_sample=300, seed=11)

# Seven variants: five linkage rules on the default map, plus two map
# sizes under the paper's complete linkage.
VARIANTS = tuple(
    [("complete", _SOM)]
    + [(linkage, _SOM) for linkage in ("average", "single", "ward", "centroid")]
    + [
        ("complete", SOMConfig(rows=6, columns=6, steps_per_sample=300, seed=11)),
        ("complete", SOMConfig(rows=10, columns=10, steps_per_sample=300, seed=11)),
    ]
)


def _sweep(engine, suite):
    """Run every variant's full analysis on one engine."""
    results = []
    for linkage, som_config in VARIANTS:
        pipeline = WorkloadAnalysisPipeline(
            characterization="sar",
            machine="A",
            som_config=som_config,
            linkage=linkage,
            engine=engine,
        )
        results.append(pipeline.run(suite))
    return results


def _timed_sweeps(suite):
    """Run the sweep twice (uncached, then cached+traced) and time both.

    The cached sweep runs under a real tracer and a fresh metrics
    registry so its per-stage structure lands in the archived JSON.
    """
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        started = time.perf_counter()
        uncached_results = _sweep(PipelineEngine(cache=False), suite)
        uncached = time.perf_counter() - started

        engine = PipelineEngine()
        tracer = Tracer()
        with use_tracer(tracer):
            started = time.perf_counter()
            cached_results = _sweep(engine, suite)
            cached = time.perf_counter() - started
    return (
        uncached,
        cached,
        engine.cache_info(),
        uncached_results,
        cached_results,
        tracer,
        metrics,
    )


def _timed_disk_sweeps(suite, cache_dir):
    """The sweep cold (empty disk cache) vs warm through a fresh engine.

    The warm engine is a brand-new object over the populated
    directory — the in-memory cache starts empty, so every hit it
    gets comes off disk, exactly like a re-run in a new process.
    """
    cold_engine = PipelineEngine(disk_cache=cache_dir)
    started = time.perf_counter()
    cold_results = _sweep(cold_engine, suite)
    cold = time.perf_counter() - started

    warm_engine = PipelineEngine(disk_cache=cache_dir)
    started = time.perf_counter()
    warm_results = _sweep(warm_engine, suite)
    warm = time.perf_counter() - started
    return cold, warm, warm_engine.disk_cache_info(), cold_results, warm_results


_FANOUT_LINKAGES = ("complete", "average", "single", "ward", "centroid")
_FANOUT_WORKERS = 4


def _timed_fanout_sweeps(suite, base_dir):
    """Serial vs planned-4-workers vs fully-warm, each timed.

    The 4-worker request goes through the planner, which keeps this
    shared-upstream sweep serial whatever the CPU count (the whole
    point — the old pool forked anyway and paid 4x for it).  The warm
    sweep re-runs over the serial sweep's populated cache, where the
    plan predicts every variant as a replay.
    """
    variants = [
        PipelineVariant(name=linkage, linkage=linkage, seed=11)
        for linkage in _FANOUT_LINKAGES
    ]
    started = time.perf_counter()
    serial_runs = run_pipeline_variants(
        variants, suite, workers=1, cache_dir=base_dir / "serial"
    )
    serial = time.perf_counter() - started

    parallel_plan = plan_pipeline_variants(
        variants, suite, workers=_FANOUT_WORKERS, cache_dir=base_dir / "parallel"
    )
    started = time.perf_counter()
    parallel_runs = run_pipeline_variants(
        variants,
        suite,
        cache_dir=base_dir / "parallel",
        plan=parallel_plan,
    )
    parallel = time.perf_counter() - started

    warm_plan = plan_pipeline_variants(
        variants, suite, workers=_FANOUT_WORKERS, cache_dir=base_dir / "serial"
    )
    started = time.perf_counter()
    warm_runs = run_pipeline_variants(
        variants, suite, cache_dir=base_dir / "serial", plan=warm_plan
    )
    warm = time.perf_counter() - started
    return (
        serial,
        parallel,
        warm,
        serial_runs,
        parallel_runs,
        warm_runs,
        parallel_plan,
        warm_plan,
    )


@pytest.mark.benchmark(group="engine")
def test_engine_caching_speedup(benchmark, paper_suite, tmp_path):
    uncached, cached, info, plain, memoized, tracer, metrics = benchmark.pedantic(
        _timed_sweeps, args=(paper_suite,), rounds=1, iterations=1
    )
    cold, warm, disk_info, cold_results, warm_results = _timed_disk_sweeps(
        paper_suite, tmp_path / "stage-cache"
    )
    (
        serial,
        parallel,
        warm_fanout,
        serial_runs,
        parallel_runs,
        warm_runs,
        parallel_plan,
        warm_plan,
    ) = _timed_fanout_sweeps(paper_suite, tmp_path)
    warm_computed_stages = sum(
        1
        for run in warm_runs
        for stats in run.result.run_report.stages
        if stats.cache_source == "compute"
    )

    write_bench_json(
        "engine_caching",
        {
            "variants": len(VARIANTS),
            "uncached_seconds": uncached,
            "cached_seconds": cached,
            "speedup": uncached / cached,
            "cache": {
                "hits": info.hits,
                "misses": info.misses,
                "entries": info.entries,
            },
            "disk_cache": {
                "cold_seconds": cold,
                "warm_seconds": warm,
                "speedup": cold / warm,
                "hits": disk_info.hits,
                "misses": disk_info.misses,
                "stores": disk_info.stores,
                "entries": disk_info.entries,
                "total_bytes": disk_info.total_bytes,
            },
            "fanout": {
                "variants": len(_FANOUT_LINKAGES),
                "workers": _FANOUT_WORKERS,
                "cpu_count": os.cpu_count(),
                "available_cpus": available_cpus(),
                "planned_mode": parallel_plan.mode,
                "planned_workers": parallel_plan.workers,
                "serial_seconds": serial,
                "parallel_seconds": parallel,
                "speedup": serial / parallel,
                "warm_seconds": warm_fanout,
                "warm_computed_stages": warm_computed_stages,
                "warm_deduped": len(warm_plan.deduped),
                "warm_cached": len(warm_plan.cached),
            },
            "cached_sweep_spans": {
                "total": sum(1 for _ in tracer.spans()),
                "stage_spans": sum(
                    1 for s in tracer.spans() if s.name.startswith("stage.")
                ),
                "som_epoch_spans": len(tracer.find("som.epoch")),
            },
            "metrics": metrics.as_dict(),
        },
        config={
            "variants": len(_FANOUT_LINKAGES),
            "workers": _FANOUT_WORKERS,
        },
    )

    emit(
        "Engine caching: linkage/SOM sweeps — memo cache, disk cache, fan-out",
        format_table(
            ["Sweep", "wall s", "stage hits", "stage misses"],
            [
                ("no cache", uncached, 0, 7 * 6),
                ("shared cache", cached, info.hits, info.misses),
                ("memo speedup", uncached / cached, "", ""),
                ("disk cold", cold, 0, 7 * 6),
                ("disk warm (fresh engine)", warm, disk_info.hits, disk_info.misses),
                ("disk speedup", cold / warm, "", ""),
                (f"fan-out serial ({len(_FANOUT_LINKAGES)} variants)", serial, "", ""),
                (
                    f"fan-out planned ({parallel_plan.mode}, "
                    f"{parallel_plan.workers} worker(s))",
                    parallel,
                    "",
                    "",
                ),
                ("fan-out speedup", serial / parallel, "", ""),
                ("fan-out warm replay", warm_fanout, "", ""),
            ],
        ),
    )

    # Both sweeps compute identical analyses...
    for a, b in zip(plain, memoized):
        assert a.recommended_clusters == b.recommended_clusters
        assert a.positions == b.positions
        for cut_a, cut_b in zip(a.cuts, b.cuts):
            assert cut_a.scores == pytest.approx(cut_b.scores)

    # ...but the cached sweep reuses upstream stages: characterize and
    # preprocess run once, the SOM trains once per distinct config
    # (3 of 7), and only downstream stages re-run per variant.
    assert info.hits > 0
    assert info.misses < 7 * 6
    reduce_misses = sum(
        1
        for result in memoized
        if not result.run_report.stats_for("reduce").cache_hit
    )
    assert reduce_misses == 3

    # The perf win the cache exists for: the sweep gets measurably
    # faster (SOM training dominates; 7 trainings collapse to 3).
    assert cached < uncached

    # Disk cache: a fresh engine over the populated directory computes
    # nothing — every stage comes from disk (or from memory after its
    # first disk read promoted it) — and produces bit-identical
    # analyses faster than recomputing.
    assert disk_info.misses == 0
    assert all(
        stats.cache_source in ("disk", "memory")
        for result in warm_results
        for stats in result.run_report.stages
    )
    for a, b in zip(cold_results, warm_results):
        assert a.recommended_clusters == b.recommended_clusters
        assert a.positions == b.positions
        assert a.dendrogram == b.dendrogram
        assert a.cuts == b.cuts
    assert warm < cold

    # Fan-out: planned and serial execution give identical analyses
    # (deterministic seeds, shared cache layout).
    for s, p in zip(serial_runs, parallel_runs):
        assert s.seed == p.seed
        assert s.result.positions == p.result.positions
        assert s.result.dendrogram == p.result.dendrogram
        assert s.result.cuts == p.result.cuts
        assert s.result.recommended_clusters == p.result.recommended_clusters

    # The scheduling verdict: the linkage variants share characterize,
    # preprocess and reduce, which a serial run computes once and every
    # pool worker would compute again, so the 4-worker request plans
    # serial on any CPU count and the "planned" sweep is never
    # meaningfully slower than serial (the old dumb pool scored ~0.25,
    # the old per-variant cost model's fork 0.45 on two CPUs).
    assert parallel_plan.mode == "serial"
    assert serial / parallel >= 0.9

    # The dedup path: over a fully warm cache the plan marks every
    # variant as a replay, executes zero compute-source stages, and
    # finishes in a fraction of the computing sweep's wall time.
    assert len(warm_plan.cached) == len(_FANOUT_LINKAGES)
    assert warm_plan.pool_variants == ()
    assert warm_computed_stages == 0
    assert warm_fanout < serial / 4
    for s, w in zip(serial_runs, warm_runs):
        assert s.result.positions == w.result.positions
        assert s.result.cuts == w.result.cuts

