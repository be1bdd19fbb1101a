"""Edge-case tests for the pipeline on unusual suites and configs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.pipeline import WorkloadAnalysisPipeline
from repro.data.table3 import SPEEDUP_TABLE
from repro.som.som import SOMConfig

FAST_SOM = SOMConfig(rows=5, columns=5, steps_per_sample=100, seed=3)


class TestTinySuites:
    def test_two_workload_suite(self, paper_suite):
        """The smallest meaningful suite: cluster counts above the
        suite size are skipped, not errors."""
        tiny = paper_suite.subset(["SciMark2.FFT", "DaCapo.xalan"])
        # Method bits cannot characterize a 2-workload suite (every
        # method is used by one or by all); the micro features can.
        pipeline = WorkloadAnalysisPipeline(
            characterization="micro",
            machine=None,
            som_config=FAST_SOM,
            cluster_counts=range(2, 9),
        )
        result = pipeline.run(tiny)
        assert [cut.clusters for cut in result.cuts] == [2]
        assert result.recommended_clusters == 2

    @pytest.mark.parametrize("characterization", ["micro", "methods"])
    def test_one_workload_suite_is_too_small(
        self, paper_suite, characterization
    ):
        """One workload used to fail deep in preprocessing as "every
        feature is constant"; the pipeline now says what is wrong."""
        from repro.exceptions import SuiteError

        lone = paper_suite.subset(["SciMark2.FFT"])
        pipeline = WorkloadAnalysisPipeline(
            characterization=characterization,
            machine=None,
            som_config=FAST_SOM,
        )
        with pytest.raises(SuiteError, match="at least 2 workloads"):
            pipeline.run(lone)

    def test_single_source_suite(self, paper_suite):
        """A suite with one source suite (no alignment group of >= 2
        foreign workloads is detectable for jvm98-only members)."""
        jvm98 = paper_suite.subset(
            w.name for w in paper_suite if w.source_suite == "SPECjvm98"
        )
        pipeline = WorkloadAnalysisPipeline(
            characterization="methods",
            machine=None,
            som_config=FAST_SOM,
            cluster_counts=(2, 3, 4),
        )
        result = pipeline.run(jvm98)
        assert len(result.cuts) == 3

    def test_all_requested_counts_too_large(self, paper_suite):
        tiny = paper_suite.subset(["SciMark2.FFT", "DaCapo.xalan"])
        pipeline = WorkloadAnalysisPipeline(
            characterization="micro",
            machine=None,
            som_config=FAST_SOM,
            cluster_counts=(5, 6),
        )
        from repro.exceptions import MeasurementError

        with pytest.raises(MeasurementError, match="fits the suite size"):
            pipeline.run(tiny)


class TestAlternateConfigurations:
    def test_explicit_alignment_group(self, paper_suite):
        pipeline = WorkloadAnalysisPipeline(
            characterization="methods",
            machine=None,
            som_config=FAST_SOM,
            alignment_group=("DaCapo.hsqldb", "DaCapo.xalan"),
        )
        result = pipeline.run(paper_suite)
        assert 2 <= result.recommended_clusters <= 8

    def test_alternate_linkage(self, paper_suite):
        pipeline = WorkloadAnalysisPipeline(
            characterization="methods",
            machine=None,
            som_config=FAST_SOM,
            linkage="average",
        )
        result = pipeline.run(paper_suite)
        assert result.dendrogram.is_monotone

    def test_machine_spec_object_accepted(self, paper_suite):
        from repro.workloads.machines import MACHINE_B

        pipeline = WorkloadAnalysisPipeline(
            characterization="sar",
            machine=MACHINE_B,
            som_config=FAST_SOM,
        )
        result = pipeline.run(paper_suite)
        assert result.machine_name == "B"

    def test_custom_speedup_columns(self, paper_suite):
        inflated = {
            "A": {name: 2.0 * v for name, v in SPEEDUP_TABLE["A"].items()},
            "B": dict(SPEEDUP_TABLE["B"]),
        }
        pipeline = WorkloadAnalysisPipeline(
            characterization="methods",
            machine=None,
            som_config=FAST_SOM,
            speedups=inflated,
        )
        result = pipeline.run(paper_suite)
        baseline = WorkloadAnalysisPipeline(
            characterization="methods",
            machine=None,
            som_config=FAST_SOM,
        ).run(paper_suite)
        for cut, base_cut in zip(result.cuts, baseline.cuts):
            # GM scale-equivariance: doubling every A speedup doubles A.
            assert cut.scores["A"] == pytest.approx(
                2.0 * base_cut.scores["A"]
            )
            assert cut.scores["B"] == pytest.approx(base_cut.scores["B"])

    def test_stage_methods_usable_independently(self, paper_suite):
        """The pipeline's stages are a public API, callable one by one."""
        pipeline = WorkloadAnalysisPipeline(
            characterization="methods", machine=None, som_config=FAST_SOM
        )
        raw = pipeline.characterize(paper_suite)
        prepared = pipeline.preprocess(raw)
        som, positions = pipeline.reduce(prepared)
        dendrogram = pipeline.cluster(positions)
        cuts = pipeline.score_cuts(dendrogram)
        assert len(cuts) == 7
        assert som.is_trained


    def test_stage_methods_run_the_configured_stages(self, paper_suite):
        """One by one, the stages are those of ``run()``: a batch-mode
        pipeline's ``reduce`` trains the batch SOM, not the sequential
        default, and every artifact matches the engine run's."""
        pipeline = WorkloadAnalysisPipeline(
            characterization="methods",
            machine=None,
            som_config=FAST_SOM,
            som_mode="batch",
        )
        result = pipeline.run(paper_suite)
        raw = pipeline.characterize(paper_suite)
        prepared = pipeline.preprocess(raw)
        som, positions = pipeline.reduce(prepared)
        dendrogram = pipeline.cluster(positions)
        cuts = pipeline.score_cuts(dendrogram)
        recommended = pipeline.recommend(
            paper_suite, positions, dendrogram, cuts
        )
        assert som.epochs_trained == result.som.epochs_trained == 50
        assert np.array_equal(som.weights, result.som.weights)
        assert positions == result.positions
        assert dendrogram == result.dendrogram
        assert cuts == result.cuts
        assert recommended == result.recommended_clusters

class TestCustomCharacterizer:
    def test_pluggable_characterizer_runs(self, paper_suite):
        """Downstream users can bring their own characterization."""
        import numpy as np

        from repro.characterization.base import CharacteristicVectors

        def characterize(suite):
            rng = np.random.default_rng(0)
            names = [w.name for w in suite]
            # Two latent groups: SciMark2 vs everything else.
            rows = [
                [1.0 + 0.01 * rng.normal(), 0.0 + 0.01 * rng.normal()]
                if name.startswith("SciMark2.")
                else [0.0 + 0.01 * rng.normal(), 1.0 + 0.01 * rng.normal()]
                for name in names
            ]
            return CharacteristicVectors(names, ["g1", "g2"], rows)

        pipeline = WorkloadAnalysisPipeline(
            characterization="custom",
            machine=None,
            custom_characterizer=characterize,
            som_config=FAST_SOM,
            cluster_counts=(2,),
        )
        result = pipeline.run(paper_suite)
        blocks = {frozenset(b) for b in result.cut(2).partition.blocks}
        scimark = frozenset(
            n for n in paper_suite.workload_names if n.startswith("SciMark2.")
        )
        assert scimark in blocks

    def test_custom_without_callable_rejected(self):
        from repro.exceptions import CharacterizationError

        with pytest.raises(CharacterizationError, match="needs a custom"):
            WorkloadAnalysisPipeline(characterization="custom", machine=None)

    def test_callable_without_custom_flag_rejected(self):
        from repro.exceptions import CharacterizationError

        with pytest.raises(CharacterizationError, match="characterization='custom'"):
            WorkloadAnalysisPipeline(
                characterization="sar",
                machine="A",
                custom_characterizer=lambda suite: None,
            )


class TestRecommendationFallbacks:
    def test_single_machine_uses_silhouette(self, paper_suite):
        """With one machine there is no ratio; the silhouette fallback
        still produces a recommendation."""
        single = {"only": dict(SPEEDUP_TABLE["A"])}
        pipeline = WorkloadAnalysisPipeline(
            characterization="methods",
            machine=None,
            speedups=single,
            som_config=FAST_SOM,
        )
        result = pipeline.run(paper_suite)
        assert 2 <= result.recommended_clusters <= 8

    def test_three_machines_use_silhouette(self, paper_suite):
        triple = {
            "A": dict(SPEEDUP_TABLE["A"]),
            "B": dict(SPEEDUP_TABLE["B"]),
            "C": {k: 1.5 * v for k, v in SPEEDUP_TABLE["A"].items()},
        }
        pipeline = WorkloadAnalysisPipeline(
            characterization="methods",
            machine=None,
            speedups=triple,
            som_config=FAST_SOM,
        )
        result = pipeline.run(paper_suite)
        assert 2 <= result.recommended_clusters <= 8
        for cut in result.cuts:
            assert set(cut.scores) == {"A", "B", "C"}
