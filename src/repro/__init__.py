"""Hierarchical means: single-number benchmarking with workload cluster analysis.

A complete reproduction of Yoo, Lee, Lee & Chow (IISWC 2007).  The
library provides:

* the **hierarchical means** HGM/HAM/HHM and the partition algebra
  they operate on (:mod:`repro.core`);
* the full characterization-to-score **pipeline**: synthetic SAR
  counters and Java method-utilization bit vectors
  (:mod:`repro.characterization`), a from-scratch Self-Organizing Map
  (:mod:`repro.som`), complete-linkage hierarchical clustering
  (:mod:`repro.cluster`), and the orchestration layer
  (:mod:`repro.analysis`);
* the paper's **experimental universe**: the 13-workload hypothetical
  SPECjvm suite, the Table II machines, and an execution-time
  simulator (:mod:`repro.workloads`);
* the **published data** of Tables III-VI plus the recovered cluster
  partitions behind them (:mod:`repro.data`, :mod:`repro.inference`);
* text renderings of every figure (:mod:`repro.viz`);
* an **observability layer** — tracing spans with Chrome/JSONL export,
  a metrics registry, structured logging — threaded through the engine,
  the SOM and the CLI (:mod:`repro.obs`).

Quickstart
----------
>>> from repro import Partition, hierarchical_geometric_mean
>>> scores = {"fft": 1.1, "lu": 1.2, "javac": 4.0}
>>> hgm = hierarchical_geometric_mean(scores, Partition([["fft", "lu"], ["javac"]]))
>>> round(hgm, 3)
2.144
"""

from repro.analysis import AnalysisResult, WorkloadAnalysisPipeline
from repro.cluster import AgglomerativeClustering, Dendrogram
from repro.engine import DiskCache, PipelineEngine, RunReport, Stage
from repro.core import (
    Hierarchy,
    Partition,
    SuiteScorer,
    arithmetic_mean,
    compare_machines,
    geometric_mean,
    harmonic_mean,
    hierarchical_arithmetic_mean,
    hierarchical_geometric_mean,
    hierarchical_harmonic_mean,
    hierarchical_mean,
)
from repro.exceptions import ReproError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    configure_logging,
    current_metrics,
    current_tracer,
    get_logger,
    use_metrics,
    use_tracer,
)
from repro.som import SelfOrganizingMap, SOMConfig
from repro.workloads import (
    MACHINE_A,
    MACHINE_B,
    REFERENCE_MACHINE,
    BenchmarkSuite,
    ExecutionSimulator,
    MachineSpec,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # means & partitions
    "arithmetic_mean",
    "geometric_mean",
    "harmonic_mean",
    "hierarchical_mean",
    "hierarchical_geometric_mean",
    "hierarchical_arithmetic_mean",
    "hierarchical_harmonic_mean",
    "Partition",
    "Hierarchy",
    "SuiteScorer",
    "compare_machines",
    # pipeline
    "WorkloadAnalysisPipeline",
    "AnalysisResult",
    "PipelineEngine",
    "RunReport",
    "Stage",
    "DiskCache",
    "derive_seed",
    "SelfOrganizingMap",
    "SOMConfig",
    "AgglomerativeClustering",
    "Dendrogram",
    # observability
    "Tracer",
    "MetricsRegistry",
    "current_tracer",
    "current_metrics",
    "use_tracer",
    "use_metrics",
    "get_logger",
    "configure_logging",
    # experimental universe
    "BenchmarkSuite",
    "MachineSpec",
    "MACHINE_A",
    "MACHINE_B",
    "REFERENCE_MACHINE",
    "ExecutionSimulator",
]


def __getattr__(name: str):
    # Sweeps are loaded only by code that runs one: ``import repro``
    # stays free of the sweep module's dataclasses.
    if name == "derive_seed":
        from repro.analysis.sweep import derive_seed

        return derive_seed
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
