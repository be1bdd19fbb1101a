"""Pipeline variant sweeps: one engine, in order, in this process.

Pins what a sweep promises: seeds are derived deterministically,
results come back in variant order, stages shared between variants or
stored by an earlier sweep are not recomputed, telemetry lands in the
caller's tracer and recorder, and ``sweep --dry-run``'s plan predicts
exactly the keys execution uses.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.analysis.sweep import (
    PipelineVariant,
    derive_seed,
    plan_pipeline_variants,
    run_pipeline_variants,
)
from repro.exceptions import EngineError, MeasurementError
from repro.obs import (
    MetricsRegistry,
    RunRecorder,
    Tracer,
    new_context,
    use_context,
    use_metrics,
    use_recorder,
    use_tracer,
)

UPSTREAM = ("characterize", "preprocess", "reduce")
DOWNSTREAM = ("cluster", "score_cuts", "recommend")


def _variants(*linkages, **overrides):
    return [
        PipelineVariant(name=linkage, linkage=linkage, **overrides)
        for linkage in linkages
    ]


def _computed(runs):
    return sum(
        1
        for run in runs
        for stats in run.result.run_report.stages
        if stats.cache_source == "compute"
    )


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(11, 0, "a") == derive_seed(11, 0, "a")

    def test_discriminates_base_index_and_name(self):
        baseline = derive_seed(11, 0, "a")
        assert derive_seed(12, 0, "a") != baseline
        assert derive_seed(11, 1, "a") != baseline
        assert derive_seed(11, 0, "b") != baseline

    def test_non_negative_32bit(self):
        for index in range(20):
            seed = derive_seed(0, index, f"v{index}")
            assert 0 <= seed < 2**32

    def test_stays_bitwise_and_importable_from_the_package(self):
        assert repro.derive_seed is derive_seed
        assert derive_seed(11, 0, "complete") == 3970914959


class TestRunPipelineVariants:
    @pytest.fixture(scope="class")
    def sweep(self, paper_suite, tmp_path_factory):
        cache = tmp_path_factory.mktemp("sweep-cache")
        variants = [
            *_variants("complete", "single", seed=11),
            PipelineVariant(name="derived", linkage="average"),
        ]
        runs = run_pipeline_variants(
            variants, paper_suite, cache_dir=cache, base_seed=3
        )
        return variants, runs, cache

    def test_results_come_back_in_variant_order(self, sweep):
        variants, runs, _ = sweep
        assert [run.name for run in runs] == ["complete", "single", "derived"]
        assert [run.variant for run in runs] == variants

    def test_explicit_seed_wins_derived_fills_in(self, sweep):
        _, runs, _ = sweep
        assert [run.seed for run in runs[:2]] == [11, 11]
        assert runs[2].seed == derive_seed(3, 2, "derived")

    def test_later_variants_share_upstream_stages(self, sweep):
        _, runs, _ = sweep
        second = runs[1].result.run_report
        for stage in UPSTREAM:
            assert second.stats_for(stage).cache_source == "memory"
        for stage in DOWNSTREAM:
            assert second.stats_for(stage).cache_source == "compute"

    def test_fully_warm_sweep_computes_zero_stages(self, sweep, paper_suite):
        variants, _, cache = sweep
        warm = run_pipeline_variants(
            variants, paper_suite, cache_dir=cache, base_seed=3
        )
        assert _computed(warm) == 0
        assert all(
            stats.cache_source in ("disk", "memory")
            for run in warm
            for stats in run.result.run_report.stages
        )

    def test_warm_sweep_replays_the_cold_results_bitwise(
        self, sweep, paper_suite
    ):
        variants, cold, cache = sweep
        warm = run_pipeline_variants(
            variants, paper_suite, cache_dir=cache, base_seed=3
        )
        for before, after in zip(cold, warm):
            assert before.seed == after.seed
            assert after.result.positions == before.result.positions
            assert after.result.dendrogram == before.result.dendrogram
            assert after.result.cuts == before.result.cuts

    def test_empty_variant_list_rejected(self, paper_suite):
        with pytest.raises(MeasurementError, match="no variants"):
            run_pipeline_variants([], paper_suite)

    def test_duplicate_names_rejected_before_running(self, paper_suite):
        doubled = [
            *_variants("complete", seed=1),
            PipelineVariant(name="complete", linkage="single", seed=2),
        ]
        tracer = Tracer()
        with use_tracer(tracer), pytest.raises(EngineError, match="duplicate"):
            run_pipeline_variants(doubled, paper_suite)
        assert list(tracer.spans()) == []

    @pytest.mark.parametrize("workers", [2, 0, "auto"])
    def test_workers_other_than_one_raise(self, paper_suite, workers):
        with pytest.raises(MeasurementError, match="workers must be 1"):
            run_pipeline_variants(
                _variants("complete", seed=1), paper_suite, workers=workers
            )


def _spans_with_trace_ids(tracer):
    return {span.trace_id for span in tracer.spans()}


class TestSweepTelemetry:
    @pytest.fixture(scope="class")
    def twins(self, paper_suite):
        variants = [
            PipelineVariant(name="original", linkage="ward", seed=5),
            PipelineVariant(name="twin", linkage="ward", seed=5),
        ]
        return run_pipeline_variants(variants, paper_suite)

    @pytest.fixture(scope="class")
    def traced(self, paper_suite):
        """One traced, recorded two-variant sweep under a caller's span."""
        tracer, context = Tracer(), new_context()
        variants = _variants("complete", "average", seed=11, som_mode="batch")
        recorder = RunRecorder("sweep")
        with use_context(context), use_recorder(recorder):
            with use_tracer(tracer), tracer.span("sweep.request"):
                run_pipeline_variants(variants, paper_suite)
            record = recorder.finish(tracer=tracer)
        return tracer, context, record

    def test_identical_variants_agree(self, twins):
        original, twin = twins
        assert [original.name, twin.name] == ["original", "twin"]
        assert original.seed == twin.seed == 5
        assert twin.result.positions == original.result.positions
        assert twin.result.dendrogram == original.result.dendrogram
        assert twin.result.cuts == original.result.cuts

    def test_twin_replays_every_stage_from_memory(self, twins):
        original, twin = twins
        assert all(
            stats.cache_source == "compute"
            for stats in original.result.run_report.stages
        )
        assert all(
            stats.cache_source == "memory"
            for stats in twin.result.run_report.stages
        )

    def test_sweep_stages_reach_the_ledger_record(self, paper_suite, tmp_path):
        """Six stage entries per variant, in variant order."""
        variants = [
            PipelineVariant(name="s1", seed=1),
            PipelineVariant(name="s2", seed=2),
            PipelineVariant(name="s1dup", seed=1),
        ]
        recorder = RunRecorder("sweep")
        registry = MetricsRegistry()
        with use_recorder(recorder), use_metrics(registry):
            runs = run_pipeline_variants(
                variants, paper_suite, cache_dir=tmp_path / "cache"
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
        assert record["cache_sources"] == {"compute": 12, "memory": 6}
        executions = sum(
            value["count"]
            for key, value in registry.as_dict().items()
            if key.startswith("repro_engine_stage_seconds")
        )
        assert executions == len(record["stages"])

    def test_traced_sweep_is_one_tree_per_trace_id(self, traced):
        tracer, context, _ = traced
        assert len(tracer.roots) == 1
        assert tracer.roots[0].name == "sweep.request"
        assert _spans_with_trace_ids(tracer) == {context.trace_id}

    def test_spans_cover_the_sweep_and_each_variant(self, traced):
        tracer, _, _ = traced
        (sweep,) = tracer.find("sweep")
        assert sweep.attributes["variants"] == 2
        variant_spans = tracer.find("sweep.variant")
        assert [span.attributes["variant"] for span in variant_spans] == [
            "complete",
            "average",
        ]
        assert all(span.attributes["seed"] == 11 for span in variant_spans)
        assert list(sweep.children) == list(variant_spans)
        assert sum(span.duration_seconds for span in variant_spans) <= (
            sweep.duration_seconds
        )

    def test_ledger_record_byte_stable_under_obs_show_json(self, traced):
        """The record `obs show --json` prints serializes identically."""
        _, context, record = traced
        assert record["trace_id"] == context.trace_id
        first = json.dumps(record, indent=2, sort_keys=True)
        assert json.dumps(record, indent=2, sort_keys=True) == first
        assert json.dumps(json.loads(first), indent=2, sort_keys=True) == first

    def test_two_sweeps_get_disjoint_trace_ids(self, paper_suite):
        variants = _variants("complete", seed=11)
        seen = []
        for _ in range(2):
            tracer, context = Tracer(), new_context()
            with use_context(context), use_tracer(tracer):
                run_pipeline_variants(variants, paper_suite)
            assert _spans_with_trace_ids(tracer) == {context.trace_id}
            seen.append(context.trace_id)
        assert seen[0] != seen[1]

    def test_untraced_context_free_sweep_stays_unstamped(self, paper_suite):
        tracer = Tracer()
        with use_tracer(tracer):
            run_pipeline_variants(_variants("complete", seed=11), paper_suite)
        assert tracer.find("sweep.variant")
        assert _spans_with_trace_ids(tracer) == {None}


class TestPlanPipelineVariants:
    def test_planned_keys_and_seeds_match_execution(self, paper_suite):
        variants = _variants("complete", "average")
        plan = plan_pipeline_variants(variants, paper_suite, base_seed=23)
        runs = run_pipeline_variants(variants, paper_suite, base_seed=23)
        for index, (variant, planned, run) in enumerate(
            zip(variants, plan.variants, runs)
        ):
            assert planned.seed == run.seed == derive_seed(23, index, variant.name)
            assert dict(planned.stage_keys) == {
                stats.stage: stats.key
                for stats in run.result.run_report.stages
            }

    def test_cold_plan_shares_upstream_stages(self, paper_suite, tmp_path):
        plan = plan_pipeline_variants(
            _variants("complete", "single", seed=11),
            paper_suite,
            cache_dir=tmp_path / "empty",
        )
        first, second = plan.variants
        assert first.on_disk == second.on_disk == ()
        assert first.shared == ()
        assert first.to_compute == UPSTREAM + DOWNSTREAM
        assert second.shared == UPSTREAM
        assert second.to_compute == DOWNSTREAM

    def test_warm_cache_marks_variants_for_replay(self, paper_suite, tmp_path):
        cache = tmp_path / "cache"
        variants = _variants("complete", "single", seed=11)
        run_pipeline_variants(variants[:1], paper_suite, cache_dir=cache)
        plan = plan_pipeline_variants(variants, paper_suite, cache_dir=cache)
        cached, partial = plan.variants
        assert cached.fully_cached
        assert not partial.fully_cached
        assert partial.on_disk == UPSTREAM
        rendered = plan.render()
        assert rendered.startswith("sweep plan: 2 variant(s)")
        assert "replay (cached)" in rendered
        assert "disk 6/6" in rendered
        assert "compute cluster, score_cuts, recommend" in rendered

    def test_render_mentions_every_variant_and_decision(self, paper_suite):
        twins = [
            PipelineVariant(name="fresh", linkage="single", seed=3),
            PipelineVariant(name="twin", linkage="single", seed=3),
        ]
        rendered = plan_pipeline_variants(twins, paper_suite).render()
        for expected in ("fresh", "twin", "compute", "replay (shared)"):
            assert expected in rendered

    def test_rejects_empty_and_duplicate_variants(self, paper_suite):
        with pytest.raises(MeasurementError, match="no variants"):
            plan_pipeline_variants([], paper_suite)
        doubled = _variants("complete", seed=1) * 2
        with pytest.raises(EngineError, match="duplicate"):
            plan_pipeline_variants(doubled, paper_suite)
