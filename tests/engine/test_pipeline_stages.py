"""The paper pipeline on the stage-graph engine: caching + determinism."""

from __future__ import annotations

import pytest

from repro.analysis.pipeline import WorkloadAnalysisPipeline
from repro.engine import PipelineEngine
from repro.som.som import SOMConfig

FAST_SOM = SOMConfig(rows=5, columns=5, steps_per_sample=100, seed=3)

UPSTREAM = ("characterize", "preprocess", "reduce")
DOWNSTREAM = ("cluster", "score_cuts", "recommend")
ALL_STAGES = UPSTREAM + DOWNSTREAM


def _pipeline(engine, **overrides):
    config = dict(
        characterization="methods",
        machine=None,
        som_config=FAST_SOM,
        engine=engine,
    )
    config.update(overrides)
    return WorkloadAnalysisPipeline(**config)


class TestRunReport:
    def test_six_stages_instrumented(self, paper_suite):
        result = _pipeline(PipelineEngine()).run(paper_suite)
        report = result.run_report
        assert [s.stage for s in report.stages] == list(ALL_STAGES)
        assert report.cache_misses == 6
        for stats in report.stages:
            assert stats.wall_seconds >= 0.0
            assert stats.total_bytes > 0
            assert not stats.cache_hit


class TestCaching:
    def test_identical_rerun_hits_every_stage(self, paper_suite):
        engine = PipelineEngine()
        first = _pipeline(engine).run(paper_suite)
        second = _pipeline(engine).run(paper_suite)
        assert second.run_report.cache_hits == 6
        assert second.positions == first.positions
        assert second.recommended_clusters == first.recommended_clusters
        for a, b in zip(first.cuts, second.cuts):
            assert a.scores == b.scores

    def test_linkage_sweep_reruns_only_downstream(self, paper_suite):
        """The acceptance scenario: varying only the linkage re-runs
        only the cluster/score/recommend stages."""
        engine = PipelineEngine()
        _pipeline(engine, linkage="complete").run(paper_suite)
        swept = _pipeline(engine, linkage="average").run(paper_suite)
        for stage in UPSTREAM:
            assert swept.run_report.stats_for(stage).cache_hit, stage
        for stage in DOWNSTREAM:
            assert not swept.run_report.stats_for(stage).cache_hit, stage

    def test_som_change_keeps_characterization(self, paper_suite):
        engine = PipelineEngine()
        _pipeline(engine).run(paper_suite)
        other_som = SOMConfig(rows=6, columns=6, steps_per_sample=100, seed=3)
        swept = _pipeline(engine, som_config=other_som).run(paper_suite)
        report = swept.run_report
        assert report.stats_for("characterize").cache_hit
        assert report.stats_for("preprocess").cache_hit
        for stage in ("reduce",) + DOWNSTREAM:
            assert not report.stats_for(stage).cache_hit, stage

    def test_cluster_counts_change_recomputes_scoring_only(self, paper_suite):
        engine = PipelineEngine()
        _pipeline(engine).run(paper_suite)
        swept = _pipeline(engine, cluster_counts=(2, 3, 4)).run(paper_suite)
        report = swept.run_report
        for stage in UPSTREAM + ("cluster",):
            assert report.stats_for(stage).cache_hit, stage
        for stage in ("score_cuts", "recommend"):
            assert not report.stats_for(stage).cache_hit, stage

    def test_different_suite_shares_nothing(self, paper_suite):
        engine = PipelineEngine()
        _pipeline(engine).run(paper_suite)
        subset = paper_suite.subset(
            [name for name in paper_suite.workload_names][:6]
        )
        run = _pipeline(engine).run(subset)
        assert run.run_report.cache_hits == 0


class TestDeterminism:
    def test_cached_equals_uncached_for_fixed_seed(self, paper_suite):
        """A memoized replay and a cold computation agree exactly."""
        warm_engine = PipelineEngine()
        _pipeline(warm_engine).run(paper_suite)  # populate the cache
        cached = _pipeline(warm_engine).run(paper_suite)
        cold = _pipeline(PipelineEngine()).run(paper_suite)
        assert cached.run_report.cache_hits == 6
        assert cold.run_report.cache_hits == 0
        assert cached.positions == cold.positions
        assert cached.recommended_clusters == cold.recommended_clusters
        assert len(cached.cuts) == len(cold.cuts)
        for a, b in zip(cached.cuts, cold.cuts):
            assert a.partition == b.partition
            assert a.scores == pytest.approx(b.scores)


class TestScoredCutOrientation:
    def test_machine_order_recorded_from_speedup_table(self, paper_suite):
        result = _pipeline(PipelineEngine()).run(paper_suite)
        for cut in result.cuts:
            assert cut.machine_order == ("A", "B")
            assert cut.ratio == pytest.approx(
                cut.scores["A"] / cut.scores["B"]
            )

    def test_ratio_of_explicit_orientation(self, paper_suite):
        result = _pipeline(PipelineEngine()).run(paper_suite)
        cut = result.cuts[0]
        assert cut.ratio_of("B", "A") == pytest.approx(1.0 / cut.ratio)

    def test_ratio_follows_declared_order_not_alphabet(self, paper_suite):
        """A reversed speedup table flips the ratio orientation."""
        from repro.data.table3 import SPEEDUP_TABLE

        reversed_speedups = {
            "B": dict(SPEEDUP_TABLE["B"]),
            "A": dict(SPEEDUP_TABLE["A"]),
        }
        result = _pipeline(
            PipelineEngine(), speedups=reversed_speedups
        ).run(paper_suite)
        for cut in result.cuts:
            assert cut.machine_order == ("B", "A")
            assert cut.ratio == pytest.approx(
                cut.scores["B"] / cut.scores["A"]
            )

    def test_ratio_of_unknown_machine(self, paper_suite):
        from repro.exceptions import MeasurementError

        cut = _pipeline(PipelineEngine()).run(paper_suite).cuts[0]
        with pytest.raises(MeasurementError, match="no score for machine"):
            cut.ratio_of("A", "Z")
