"""Plan-driven sweep execution end to end (planner + scheduler).

These tests run real pipeline sweeps through
``plan_pipeline_variants`` / ``run_pipeline_variants`` and pin the
tentpole behaviors: duplicate variants replay instead of recomputing,
a fully warm cache executes zero compute stages, results are
independent of the planned mode, and outcomes always come back in
variant order with the planned deterministic seeds.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.sweep import (
    PipelineVariant,
    plan_pipeline_variants,
    run_pipeline_variants,
)
from repro.engine.fanout import (
    SweepScheduler,
    Variant,
    derive_seed,
)
from repro.exceptions import EngineError
from repro.obs.ledger import RunRecorder, use_recorder
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.workloads.suite import BenchmarkSuite
from tests.sweep_plans import hand_plan


@pytest.fixture(scope="module")
def suite():
    return BenchmarkSuite.paper_suite()


def _variants(*linkages, **overrides):
    return [
        PipelineVariant(name=f"v-{linkage}", linkage=linkage, **overrides)
        for linkage in linkages
    ]


class TestDedup:
    def test_identical_variants_dedup_and_agree(self, suite, tmp_path):
        """Two names, one fingerprint: one computes, the twin replays."""
        twins = [
            PipelineVariant(name="original", linkage="average", seed=5),
            PipelineVariant(name="twin", linkage="average", seed=5),
        ]
        cache = tmp_path / "cache"
        plan = plan_pipeline_variants(twins, suite, cache_dir=cache)
        assert [v.name for v in plan.deduped] == ["twin"]
        assert plan.deduped[0].dedup_of == "original"
        runs = run_pipeline_variants(
            twins, suite, cache_dir=cache, plan=plan
        )
        assert [r.name for r in runs] == ["original", "twin"]
        assert runs[0].result.positions == runs[1].result.positions
        assert runs[0].result.dendrogram == runs[1].result.dendrogram
        assert runs[0].result.cuts == runs[1].result.cuts
        assert runs[0].seed == runs[1].seed == 5

    def test_deduped_twin_replays_from_cache(self, suite, tmp_path):
        """The twin's stages all come from cache — nothing recomputes."""
        twins = [
            PipelineVariant(name="original", linkage="ward", seed=5),
            PipelineVariant(name="twin", linkage="ward", seed=5),
        ]
        runs = run_pipeline_variants(
            twins, suite, cache_dir=tmp_path / "cache"
        )
        twin_report = runs[1].result.run_report
        assert all(
            stats.cache_source in ("memory", "disk")
            for stats in twin_report.stages
        )

    def test_dedup_emits_telemetry_counter(self, suite, tmp_path):
        registry = MetricsRegistry()
        twins = [
            PipelineVariant(name="a", linkage="single", seed=5),
            PipelineVariant(name="b", linkage="single", seed=5),
        ]
        with use_metrics(registry):
            run_pipeline_variants(twins, suite, cache_dir=tmp_path / "c")
        assert registry.counter("repro_fanout_deduped_total").value == 1
        assert registry.counter("repro_fanout_variants_total").value == 2


class TestWarmCache:
    def test_fully_warm_sweep_computes_zero_stages(self, suite, tmp_path):
        """Second sweep over the same cache: every variant replays."""
        variants = _variants("complete", "average", seed=7)
        cache = tmp_path / "cache"
        run_pipeline_variants(variants, suite, cache_dir=cache)
        plan = plan_pipeline_variants(variants, suite, cache_dir=cache)
        assert all(v.fully_cached for v in plan.variants)
        assert plan.pool_variants == ()
        assert plan.mode == "serial"
        runs = run_pipeline_variants(
            variants, suite, cache_dir=cache, plan=plan
        )
        computed = sum(
            1
            for run in runs
            for stats in run.result.run_report.stages
            if stats.cache_source == "compute"
        )
        assert computed == 0


class TestModes:
    def test_results_identical_across_planned_modes(self, suite, tmp_path):
        variants = _variants("complete", "average", seed=7)
        serial = run_pipeline_variants(
            variants, suite, workers=1, cache_dir=tmp_path / "a"
        )
        auto = run_pipeline_variants(
            variants, suite, workers="auto", cache_dir=tmp_path / "b"
        )
        for lhs, rhs in zip(serial, auto):
            assert lhs.seed == rhs.seed
            assert lhs.result.positions == rhs.result.positions
            assert lhs.result.dendrogram == rhs.result.dendrogram
            assert lhs.result.cuts == rhs.result.cuts
            assert (
                lhs.result.recommended_clusters
                == rhs.result.recommended_clusters
            )

    def test_explicit_workers_clamp_instead_of_erroring(self, suite, tmp_path):
        """More workers than CPUs or variants: clamped, not fatal."""
        variants = _variants("complete", seed=7)
        plan = plan_pipeline_variants(
            variants, suite, workers=64, cache_dir=tmp_path / "c", cpus=2
        )
        assert plan.workers == 1  # one runnable variant
        runs = run_pipeline_variants(
            variants, suite, cache_dir=tmp_path / "c", plan=plan
        )
        assert len(runs) == 1

    def test_planned_seeds_match_derivation(self, suite):
        variants = _variants("complete", "average")
        plan = plan_pipeline_variants(variants, suite, base_seed=23)
        for index, (variant, planned) in enumerate(
            zip(variants, plan.variants)
        ):
            assert planned.seed == derive_seed(23, index, variant.name)

    def test_duplicate_names_rejected(self, suite):
        doubled = _variants("complete", seed=1) * 2
        with pytest.raises(EngineError, match="duplicate"):
            plan_pipeline_variants(doubled, suite)
        with pytest.raises(EngineError, match="duplicate"):
            run_pipeline_variants(doubled, suite)


class TestLedgerStages:
    def test_pool_run_stages_reach_the_ledger_record(self, suite, tmp_path):
        """Stages that ran in pool workers join the record in variant
        order, next to the parent's replay of the duplicate."""
        variants = [
            PipelineVariant(name="s1", seed=1),
            PipelineVariant(name="s2", seed=2),
            PipelineVariant(name="s1dup", seed=1),
        ]
        cache = tmp_path / "cache"
        plan = plan_pipeline_variants(
            variants, suite, workers=2, cache_dir=cache, cpus=2
        )
        if not plan.parallel:
            pytest.skip("no fork pool on this platform")
        assert [v.pool_eligible for v in plan.variants] == [True, True, False]
        recorder = RunRecorder("sweep")
        registry = MetricsRegistry()
        with use_recorder(recorder), use_metrics(registry):
            runs = run_pipeline_variants(
                variants, suite, cache_dir=cache, plan=plan
            )
        record = recorder.finish(metrics=registry)
        expected = [
            (stats.stage, stats.cache_source)
            for run in runs
            for stats in run.result.run_report.stages
        ]
        assert len(expected) == 18
        assert [
            (stage["stage"], stage["cache_source"])
            for stage in record["stages"]
        ] == expected
        assert record["cache_sources"] == {"compute": 12, "disk": 6}
        executions = sum(
            value["count"]
            for key, value in registry.as_dict().items()
            if key.startswith("repro_engine_stage_seconds")
        )
        assert executions == len(record["stages"])


class TestSchedulerContract:
    def test_plan_and_variants_must_agree(self):
        plan = hand_plan([Variant(name="known")])
        scheduler = SweepScheduler(lambda params, seed: seed)
        with pytest.raises(EngineError, match="plan covers"):
            scheduler.execute(plan, [Variant(name="unknown")])

    def test_scheduler_uses_plan_seeds(self):
        plan = hand_plan([Variant(name="only", seed=123)])
        scheduler = SweepScheduler(lambda params, seed: seed)
        (outcome,) = scheduler.execute(plan, [Variant(name="only")])
        assert outcome.seed == 123
        assert outcome.value == 123
        assert outcome.worker_pid == os.getpid()
