"""Recommendation stage and the assembled six-stage analysis graph.

:class:`RecommendStage` is paper stage 6 (ratio dampening + SOM
alignment, with a silhouette fallback off the two-machine path).
:func:`analysis_stages` assembles all six paper stages — the graph
:class:`~repro.analysis.pipeline.WorkloadAnalysisPipeline` executes —
and :func:`suite_fingerprint` provides the content hash that seeds the
engine's source artifact, so identical suites hit the cache across
pipeline instances.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.analysis.recommend import (
    recommend_by_silhouette,
    recommend_cluster_count,
)
from repro.analysis.redundancy import exclusive_cluster_counts
from repro.characterization.base import CharacteristicVectors
from repro.characterization.stages import CharacterizeStage, PreprocessStage
from repro.cluster.dendrogram import Dendrogram
from repro.cluster.stages import ClusterStage
from repro.core.scoring import ScoredCut
from repro.core.stages import ScoreCutsStage
from repro.engine.fingerprint import fingerprint
from repro.engine.stage import RunContext, Stage
from repro.obs.log import fmt_kv, get_logger
from repro.obs.metrics import current_metrics
from repro.som.som import SOMConfig
from repro.som.stages import SOMReduceStage
from repro.stats.distance import pairwise_distances
from repro.workloads.machines import MachineSpec
from repro.workloads.suite import BenchmarkSuite

__all__ = ["RecommendStage", "analysis_stages", "suite_fingerprint"]

_log = get_logger("analysis")


class RecommendStage(Stage):
    """Stage 6: pick the cluster count (Section V-B.1).

    With exactly two machines the paper's ratio-dampening heuristic
    applies; for any other machine count the A/B ratio does not exist,
    so the silhouette criterion over the map positions decides
    (restricted to aligned ks when alignment is known).  Also emits
    the per-k alignment verdicts as their own artifact.
    """

    name = "recommend"
    inputs = ("suite", "positions", "dendrogram", "cuts")
    outputs = ("recommended_clusters", "alignment")

    def __init__(
        self,
        *,
        cluster_counts: Sequence[int],
        alignment_group: Sequence[str] | None = None,
    ) -> None:
        self._cluster_counts = tuple(sorted(set(cluster_counts)))
        self._alignment_group = (
            tuple(alignment_group) if alignment_group is not None else None
        )

    @property
    def params(self) -> Mapping[str, Any]:
        """Requested cluster counts and the explicit alignment group."""
        return {
            "cluster_counts": self._cluster_counts,
            "alignment_group": self._alignment_group,
        }

    def run(self, ctx: RunContext) -> Mapping[str, Any]:
        """Produce the alignment verdicts and the recommended count."""
        suite: BenchmarkSuite = ctx["suite"]
        dendrogram: Dendrogram = ctx["dendrogram"]
        cuts: tuple[ScoredCut, ...] = ctx["cuts"]
        positions: Mapping[str, tuple[int, int]] = ctx["positions"]
        aligned = self._alignment_verdicts(suite, dendrogram)
        recommended = self._recommend(cuts, positions, dendrogram, aligned)
        current_metrics().gauge("repro_recommended_clusters").set(recommended)
        if _log.isEnabledFor(20):  # INFO
            _log.info(
                fmt_kv(
                    "recommend",
                    clusters=recommended,
                    candidates=len(cuts),
                    aligned_ks=(
                        sorted(k for k, ok in aligned.items() if ok)
                        if aligned
                        else "n/a"
                    ),
                )
            )
        return {"recommended_clusters": recommended, "alignment": aligned}

    def _alignment_verdicts(
        self, suite: BenchmarkSuite, dendrogram: Dendrogram
    ) -> dict[int, bool] | None:
        group = self._alignment_group
        if group is None:
            # Default: the SciMark2 adoption set, when this suite has one.
            scimark = [w.name for w in suite if w.source_suite == "SciMark2"]
            group = tuple(scimark) if len(scimark) >= 2 else None
        if group is None:
            return None
        exclusive = set(exclusive_cluster_counts(dendrogram, group))
        return {k: (k in exclusive) for k in self._cluster_counts}

    def _recommend(
        self,
        cuts: tuple[ScoredCut, ...],
        positions: Mapping[str, tuple[int, int]],
        dendrogram: Dendrogram,
        aligned: dict[int, bool] | None,
    ) -> int:
        if len(cuts) == 1:
            return cuts[0].clusters
        if len(cuts[0].scores) == 2:
            ratios = {cut.clusters: cut.ratio for cut in cuts}
            return recommend_cluster_count(ratios, aligned=aligned)

        labels = sorted(positions)
        points = np.array([positions[label] for label in labels], dtype=float)
        counts = [cut.clusters for cut in cuts]
        if aligned is not None and any(aligned.get(k, False) for k in counts):
            counts = [k for k in counts if aligned.get(k, False)]
        best, __ = recommend_by_silhouette(
            pairwise_distances(points),
            dendrogram,
            labels,
            cluster_counts=counts,
        )
        return best


def analysis_stages(
    *,
    characterization: str = "sar",
    machine_spec: str | MachineSpec | None = "A",
    seed: int = 11,
    custom_characterizer: (
        Callable[[BenchmarkSuite], CharacteristicVectors] | None
    ) = None,
    som_config: SOMConfig | None = None,
    linkage: str = "complete",
    speedups: Mapping[str, Mapping[str, float]],
    cluster_counts: Sequence[int] = tuple(range(2, 9)),
    alignment_group: Sequence[str] | None = None,
    mean: str = "geometric",
    som_mode: str = "sequential",
    som_bmu_strategy: str = "exact",
) -> tuple[Stage, ...]:
    """The six paper stages, wired as one ``suite``-rooted graph.

    Feed the result to :meth:`repro.engine.PipelineEngine.run` with a
    ``{"suite": ...}`` source.  Sharing one engine across calls that
    vary a single knob (linkage, SOM config, cluster counts, ...)
    reuses every cached upstream stage.
    """
    return (
        CharacterizeStage(
            characterization=characterization,
            machine_spec=machine_spec,
            seed=seed,
            custom_characterizer=custom_characterizer,
        ),
        PreprocessStage(
            style="method-bits" if characterization == "methods" else "counters"
        ),
        SOMReduceStage(
            som_config,
            mode=som_mode,
            bmu_strategy=som_bmu_strategy,
        ),
        ClusterStage(linkage=linkage),
        ScoreCutsStage(
            speedups=speedups, cluster_counts=cluster_counts, mean=mean
        ),
        RecommendStage(
            cluster_counts=cluster_counts, alignment_group=alignment_group
        ),
    )


def suite_fingerprint(suite: BenchmarkSuite) -> str:
    """Content fingerprint of a benchmark suite (name + workload rows)."""
    return fingerprint((suite.name, tuple(suite)))
