"""Shared pipeline plumbing for the Figures 3-8 benches.

The three paper configurations (SAR on machine A, SAR on machine B,
Java method utilization) each feed one SOM map figure and one
dendrogram figure; this module runs each configuration once and caches
the result so the map bench and the dendrogram bench share it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.analysis.pipeline import AnalysisResult, WorkloadAnalysisPipeline
from repro.som.som import SOMConfig
from repro.workloads.suite import BenchmarkSuite

__all__ = ["pipeline_result", "scimark_spread_ratio", "build_pipeline"]

_SOM_CONFIG = SOMConfig(rows=8, columns=8, steps_per_sample=500, seed=11)


def build_pipeline(configuration: str) -> WorkloadAnalysisPipeline:
    """Pipeline for one of the paper's three analysis configurations."""
    if configuration == "sar-A":
        return WorkloadAnalysisPipeline(
            characterization="sar", machine="A", som_config=_SOM_CONFIG
        )
    if configuration == "sar-B":
        return WorkloadAnalysisPipeline(
            characterization="sar", machine="B", som_config=_SOM_CONFIG
        )
    if configuration == "methods":
        return WorkloadAnalysisPipeline(
            characterization="methods", machine=None, som_config=_SOM_CONFIG
        )
    raise ValueError(f"unknown configuration {configuration!r}")


@lru_cache(maxsize=None)
def pipeline_result(configuration: str) -> AnalysisResult:
    """Run one configuration (once) and cache the result."""
    return build_pipeline(configuration).run(BenchmarkSuite.paper_suite())


def scimark_spread_ratio(result: AnalysisResult, scimark: tuple[str, ...]) -> float:
    """SciMark2 map spread relative to the whole suite's spread."""
    cells = np.array([result.positions[n] for n in scimark], dtype=float)
    all_cells = np.array(list(result.positions.values()), dtype=float)
    scimark_spread = np.linalg.norm(
        cells - cells.mean(axis=0), axis=1
    ).mean()
    total_spread = np.linalg.norm(
        all_cells - all_cells.mean(axis=0), axis=1
    ).mean()
    return scimark_spread / total_spread
