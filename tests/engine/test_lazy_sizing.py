"""Artifact sizes are measured on first read, never during a run.

``Artifact.size_bytes`` and ``StageStats.artifact_sizes`` are lazy:
a run that never reports sizes never calls ``approx_size``, and a
report that does read them sees what an eager ``approx_size`` of the
stage outputs gives.
"""

from __future__ import annotations

import pytest

import repro.engine.store as store_module
from repro.analysis.pipeline import WorkloadAnalysisPipeline
from repro.engine import PipelineEngine
from repro.engine.store import ArtifactSizes, ArtifactStore, approx_size
from repro.som.som import SOMConfig

FAST_SOM = SOMConfig(rows=5, columns=5, steps_per_sample=100, seed=3)


@pytest.fixture
def sizing_calls(monkeypatch):
    """Record each top-level ``approx_size`` call (not its recursion)."""
    calls = []

    def counting(value, **kwargs):
        if not kwargs:
            calls.append(type(value).__name__)
        return approx_size(value, **kwargs)

    monkeypatch.setattr(store_module, "approx_size", counting)
    return calls


@pytest.fixture
def engine_runs(monkeypatch):
    """Keep every ``EngineRun`` so a test can read its artifact store."""
    runs = []
    original = PipelineEngine.run

    def recording(self, *args, **kwargs):
        runs.append(original(self, *args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(PipelineEngine, "run", recording)
    return runs


class TestLazySizes:
    def test_memo_replay_sizes_nothing_until_read(
        self, paper_suite, sizing_calls, engine_runs
    ):
        pipeline = WorkloadAnalysisPipeline(
            characterization="methods",
            machine=None,
            som_config=FAST_SOM,
            engine=PipelineEngine(),
        )
        pipeline.run(paper_suite)
        replayed = pipeline.run(paper_suite)
        assert replayed.run_report.cache_hits == 6
        assert sizing_calls == []

        replayed.run_report.summary()
        assert len(sizing_calls) == 8  # every stage output, once each
        store = engine_runs[-1].store
        for stats, stage in zip(replayed.run_report.stages, pipeline.stages()):
            assert stats.total_bytes == sum(
                approx_size(store.get(name)) for name in stage.outputs
            )

    def test_computed_run_sizes_nothing_until_read(self, paper_suite, sizing_calls):
        result = WorkloadAnalysisPipeline(
            characterization="methods", machine=None, som_config=FAST_SOM
        ).run(paper_suite)
        assert sizing_calls == []
        sizes = result.run_report.stats_for("reduce").artifact_sizes
        assert sorted(sizes) == ["positions", "som"]
        assert sizes["som"] == approx_size(result.som)
        assert sizing_calls == ["SelfOrganizingMap"]  # positions not read

    def test_each_artifact_is_sized_once(self, sizing_calls):
        store = ArtifactStore()
        artifact = store.put("x", [1.0, 2.0], "fp")
        sizes = ArtifactSizes([artifact])
        assert sizes["x"] == artifact.size_bytes == sizes["x"]
        assert sizing_calls == ["list"]

    def test_view_is_read_only(self):
        store = ArtifactStore()
        sizes = ArtifactSizes([store.put("x", [1.0, 2.0], "fp")])
        with pytest.raises(TypeError):
            sizes["x"] = 0  # type: ignore[index]
        assert dict(sizes) == {"x": approx_size([1.0, 2.0])}
