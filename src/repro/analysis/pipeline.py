"""The end-to-end pipeline of the paper, as one configurable object.

:class:`WorkloadAnalysisPipeline` chains every stage of Sections III-V:

1. **characterize** the suite (synthetic SAR counters on a chosen
   machine, or machine-independent Java method bits);
2. **preprocess** (drop uninformative features, standardize);
3. **reduce** with a SOM, mapping each workload to a 2-D cell;
4. **cluster** the cell coordinates with complete-linkage
   agglomerative clustering ("the Hierarchical Clustering is applied
   to the reduced dimension");
5. **score**: cut the dendrogram at every requested cluster count and
   compute the hierarchical mean of the per-workload speedups on both
   machines — a regenerated Table IV/V/VI;
6. **recommend** a cluster count (ratio dampening + SOM alignment).

Since the stage-graph refactor the pipeline is a thin façade over
:class:`repro.engine.PipelineEngine`: each paper stage is a
:class:`repro.engine.Stage` implementation living beside its
subsystem, and ``run()`` executes the assembled graph.  Passing a
shared engine to several pipelines memoizes unchanged upstream stages
across runs, so parameter sweeps (linkage, SOM config, cluster
counts) only recompute what actually changed; per-stage wall time and
cache hit/miss stats land on :attr:`AnalysisResult.run_report`.

The result object keeps every intermediate product so examples and
benches can render maps, dendrograms and tables from one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.analysis.redundancy import shared_cells
from repro.analysis.stages import analysis_stages, suite_fingerprint
from repro.characterization.base import CharacteristicVectors
from repro.cluster.dendrogram import Dendrogram
from repro.core.scoring import ScoredCut
from repro.data.table3 import SPEEDUP_TABLE
from repro.engine.executor import PipelineEngine, RunReport, run_single
from repro.engine.stage import Stage
from repro.exceptions import (
    CharacterizationError,
    MeasurementError,
    SuiteError,
)
from repro.obs.trace import current_tracer
from repro.som.som import SelfOrganizingMap, SOMConfig
from repro.workloads.machines import MachineSpec, machine
from repro.workloads.suite import BenchmarkSuite

__all__ = ["ScoredCut", "AnalysisResult", "WorkloadAnalysisPipeline"]


@dataclass(frozen=True)
class AnalysisResult:
    """Everything one pipeline run produced.

    ``raw_vectors``, ``prepared_vectors`` and ``som`` are ``None``
    only on results reconstructed from their archived JSON form (the
    export intentionally drops those bulky artifacts).
    ``run_report`` carries the engine's per-stage instrumentation for
    results produced by :meth:`WorkloadAnalysisPipeline.run`.
    """

    suite_name: str
    characterization: str
    machine_name: str | None
    raw_vectors: CharacteristicVectors | None
    prepared_vectors: CharacteristicVectors | None
    som: SelfOrganizingMap | None
    positions: Mapping[str, tuple[int, int]]
    dendrogram: Dendrogram
    cuts: tuple[ScoredCut, ...]
    recommended_clusters: int
    run_report: RunReport | None = field(default=None, compare=False, repr=False)

    def cut(self, clusters: int) -> ScoredCut:
        """The scored cut at one cluster count."""
        for scored in self.cuts:
            if scored.clusters == clusters:
                return scored
        raise MeasurementError(
            f"AnalysisResult: no cut with {clusters} clusters was computed; "
            f"computed counts: {[scored.clusters for scored in self.cuts]}"
        )

    def shared_cells(self) -> dict[tuple[int, int], tuple[str, ...]]:
        """SOM cells holding more than one workload."""
        return shared_cells(self.positions)


class WorkloadAnalysisPipeline:
    """Configurable Sections III-V pipeline (a façade over the engine).

    Parameters
    ----------
    characterization:
        ``"sar"`` (machine-dependent OS counters; requires
        ``machine``), ``"methods"`` (machine-independent Java method
        bits), ``"micro"`` (machine-independent instruction-mix and
        stride features, the Section V-C suggestion) or ``"custom"``
        (bring your own: pass ``custom_characterizer``, a callable
        from suite to :class:`CharacteristicVectors`).
    machine:
        The machine SAR counters are collected on — a name (``"A"`` /
        ``"B"``) or a :class:`MachineSpec`.  Ignored for ``"methods"``.
    speedups:
        Per-machine workload scores to feed the hierarchical mean;
        defaults to the published Table III.  Column order fixes the
        ratio orientation of every :class:`ScoredCut`.
    som_config:
        SOM hyper-parameters; the default 8x8 map suits the 13-workload
        suite.
    cluster_counts:
        Which table rows to compute; the paper uses 2..8.
    alignment_group:
        Workload names whose exclusive-cluster status defines "aligned
        with the SOM analysis" for the recommendation (default: the
        SciMark2 adoption set when present in the suite).
    seed:
        Seed for the characterization sampling.
    engine:
        A :class:`repro.engine.PipelineEngine` to execute on.  Pass
        one shared engine to several pipelines (or reuse one pipeline)
        to memoize unchanged stages across runs — a sweep that varies
        only the linkage re-runs only cluster/score/recommend.  By
        default each pipeline gets a private engine.
    som_mode:
        SOM training mode: ``"sequential"`` (the paper's algorithm,
        default) or ``"batch"`` (deterministic Kohonen batch update).
    som_bmu_strategy:
        Batch-mode update arithmetic: ``"exact"`` (default, bitwise
        the reference batch loop) or ``"pruned"`` (grouped update,
        within ~1e-13 of exact); both search BMUs with
        :mod:`repro.som.bmu_fast`.  A non-default strategy joins the
        reduce stage's cache params, so exact and pruned artifacts
        never alias.

    Example
    -------
    >>> pipeline = WorkloadAnalysisPipeline(characterization="methods")
    >>> result = pipeline.run(BenchmarkSuite.paper_suite())
    >>> 2 <= result.recommended_clusters <= 8
    True
    """

    def __init__(
        self,
        *,
        characterization: str = "sar",
        machine: str | MachineSpec | None = "A",
        speedups: Mapping[str, Mapping[str, float]] | None = None,
        som_config: SOMConfig | None = None,
        cluster_counts: Sequence[int] = tuple(range(2, 9)),
        alignment_group: Sequence[str] | None = None,
        linkage: str = "complete",
        seed: int = 11,
        custom_characterizer: "Callable[[BenchmarkSuite], CharacteristicVectors] | None" = None,
        engine: PipelineEngine | None = None,
        som_mode: str = "sequential",
        som_bmu_strategy: str = "exact",
    ) -> None:
        if custom_characterizer is not None:
            if characterization != "custom":
                raise CharacterizationError(
                    "pass characterization='custom' together with "
                    "custom_characterizer"
                )
        elif characterization == "custom":
            raise CharacterizationError(
                "characterization='custom' needs a custom_characterizer"
            )
        elif characterization not in ("sar", "methods", "micro"):
            raise CharacterizationError(
                f"unknown characterization {characterization!r}; "
                "use 'sar', 'methods', 'micro' or 'custom'"
            )
        self._custom_characterizer = custom_characterizer
        if characterization == "sar" and machine is None:
            raise CharacterizationError(
                "SAR characterization needs a machine to collect counters on"
            )
        if not cluster_counts:
            raise MeasurementError("pipeline: no cluster counts requested")
        self._characterization = characterization
        self._machine = self._resolve_machine(machine)
        self._speedups = {
            name: dict(column)
            for name, column in (speedups or SPEEDUP_TABLE).items()
        }
        self._som_config = som_config or SOMConfig(rows=8, columns=8, seed=seed)
        self._cluster_counts = tuple(sorted(set(cluster_counts)))
        self._alignment_group = (
            tuple(alignment_group) if alignment_group is not None else None
        )
        self._linkage = linkage
        self._seed = seed
        self._som_mode = som_mode
        self._som_bmu_strategy = som_bmu_strategy
        self._engine = engine if engine is not None else PipelineEngine()

    @staticmethod
    def _resolve_machine(spec: str | MachineSpec | None) -> MachineSpec | None:
        if spec is None or isinstance(spec, MachineSpec):
            return spec
        return machine(spec)

    @property
    def engine(self) -> PipelineEngine:
        """The engine this pipeline executes on (shareable)."""
        return self._engine

    def stages(self) -> tuple[Stage, ...]:
        """The six-stage graph this pipeline's configuration maps to."""
        return analysis_stages(
            characterization=self._characterization,
            machine_spec=self._machine,
            seed=self._seed,
            custom_characterizer=self._custom_characterizer,
            som_config=self._som_config,
            linkage=self._linkage,
            speedups=self._speedups,
            cluster_counts=self._cluster_counts,
            alignment_group=self._alignment_group,
            som_mode=self._som_mode,
            som_bmu_strategy=self._som_bmu_strategy,
        )

    # -- stages (individually callable, engine-free) -----------------------

    def _run_stage(self, name: str, inputs: Mapping[str, object]) -> dict:
        """Run the named stage of :meth:`stages` on in-memory inputs.

        Every stage method goes through here, so each one runs exactly
        the stage :meth:`run` executes (SOM mode and strategy included).
        """
        stage = next(stage for stage in self.stages() if stage.name == name)
        return run_single(stage, inputs)

    def characterize(self, suite: BenchmarkSuite) -> CharacteristicVectors:
        """Stage 1: raw characteristic vectors for the suite."""
        return self._run_stage("characterize", {"suite": suite})["raw_vectors"]

    def preprocess(self, raw: CharacteristicVectors) -> CharacteristicVectors:
        """Stage 2: the paper's feature filtering and standardization.

        Custom characterizations get the counter-style treatment (drop
        constants, standardize), which is safe for any real-valued
        vectors; bit-vector characterizations need ``"methods"``.
        """
        outputs = self._run_stage("preprocess", {"raw_vectors": raw})
        return outputs["prepared_vectors"]

    def reduce(
        self, prepared: CharacteristicVectors
    ) -> tuple[SelfOrganizingMap, dict[str, tuple[int, int]]]:
        """Stage 3: SOM training and workload-to-cell mapping."""
        outputs = self._run_stage("reduce", {"prepared_vectors": prepared})
        return outputs["som"], outputs["positions"]

    def cluster(
        self, positions: Mapping[str, tuple[int, int]]
    ) -> Dendrogram:
        """Stage 4: agglomerative clustering of the 2-D map positions."""
        return self._run_stage("cluster", {"positions": positions})["dendrogram"]

    def score_cuts(self, dendrogram: Dendrogram) -> tuple[ScoredCut, ...]:
        """Stage 5: hierarchical geometric means at every cluster count.

        Speedup columns are restricted to the clustered workloads, so
        subset suites score correctly against the full Table III.
        """
        return self._run_stage("score_cuts", {"dendrogram": dendrogram})["cuts"]

    def recommend(
        self,
        suite: BenchmarkSuite,
        positions: Mapping[str, tuple[int, int]],
        dendrogram: Dendrogram,
        cuts: tuple[ScoredCut, ...],
    ) -> int:
        """Stage 6: the recommended cluster count for scored cuts."""
        outputs = self._run_stage(
            "recommend",
            {
                "suite": suite,
                "positions": positions,
                "dendrogram": dendrogram,
                "cuts": cuts,
            },
        )
        return outputs["recommended_clusters"]

    # -- orchestration -----------------------------------------------------

    def run(self, suite: BenchmarkSuite) -> AnalysisResult:
        """Execute the stage graph on the engine and bundle the artifacts."""
        if len(suite) < 2:
            raise SuiteError(
                f"pipeline: suite {suite.name!r} has {len(suite)} workload; "
                "an analysis needs at least 2 workloads to compare"
            )
        self._check_speedup_coverage(suite)
        with current_tracer().span(
            "pipeline.run",
            suite=suite.name,
            characterization=self._characterization,
            machine=self._machine.name if self._machine else None,
        ):
            engine_run = self._engine.run(
                self.stages(),
                {"suite": suite},
                source_fingerprints={"suite": suite_fingerprint(suite)},
            )
        return AnalysisResult(
            suite_name=suite.name,
            characterization=self._characterization,
            machine_name=self._machine.name if self._machine else None,
            raw_vectors=engine_run.artifact("raw_vectors"),
            prepared_vectors=engine_run.artifact("prepared_vectors"),
            som=engine_run.artifact("som"),
            positions=engine_run.artifact("positions"),
            dendrogram=engine_run.artifact("dendrogram"),
            cuts=engine_run.artifact("cuts"),
            recommended_clusters=engine_run.artifact("recommended_clusters"),
            run_report=engine_run.report,
        )

    def _check_speedup_coverage(self, suite: BenchmarkSuite) -> None:
        for machine_name, column in self._speedups.items():
            missing = [w.name for w in suite if w.name not in column]
            if missing:
                raise MeasurementError(
                    f"pipeline: machine {machine_name!r} has no speedups for "
                    f"{missing}"
                )
