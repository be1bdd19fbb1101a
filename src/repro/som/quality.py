"""Quality measures for a trained SOM.

Two standard diagnostics:

* **quantization error** — mean distance between each sample and its
  best matching unit's weight vector; measures how faithfully the map
  covers the data.
* **topographic error** — fraction of samples whose best and
  second-best matching units are *not* lattice neighbors; measures how
  well the map preserves topology, which is the property the paper
  leans on when reading cluster structure off the 2-D map.

Both rank units with the einsum scores of
:func:`repro.som.bmu.bmu_scores`, the search
:meth:`~repro.som.som.SelfOrganizingMap.project` runs, so a sample's
best unit here is bitwise the cell it is projected to.  The second
best unit is the nearest unit other than the best one (lowest index
among ties).  :func:`map_quality` derives the best units and both
errors from one score pass; the reduce stage uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import SOMError
from repro.som.bmu import bmu_scores
from repro.som.som import SelfOrganizingMap

__all__ = ["MapQuality", "map_quality", "quantization_error", "topographic_error"]


@dataclass(frozen=True)
class MapQuality:
    """Best units and both quality gauges from one score pass."""

    bmus: np.ndarray
    quantization_error: float
    topographic_error: float


def _checked_matrix(
    som: SelfOrganizingMap, data: Sequence[Sequence[float]] | np.ndarray, caller: str
) -> np.ndarray:
    if not som.is_trained:
        raise SOMError(f"{caller}: SOM is not trained")
    matrix = np.asarray(data, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise SOMError(f"{caller}: expected non-empty 2-D data, got {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise SOMError(f"{caller}: data contains NaN or inf")
    dim = som._weights.shape[1]
    if matrix.shape[1] != dim:
        raise SOMError(
            f"{caller}: data has dimension {matrix.shape[1]}, map expects {dim}"
        )
    return matrix


def _topographic_error_of(
    som: SelfOrganizingMap, scores: np.ndarray, bmus: np.ndarray
) -> float:
    """Topographic error from a score matrix it may overwrite."""
    if scores.shape[1] < 2:
        raise SOMError("SOM: map has a single unit; no second BMU exists")
    scores[np.arange(scores.shape[0]), bmus] = np.inf
    second = np.argmin(scores, axis=1)
    adjacent = som.grid.lattice_neighbor_mask(bmus, second)
    return int(np.count_nonzero(~adjacent)) / scores.shape[0]


def map_quality(
    som: SelfOrganizingMap, data: Sequence[Sequence[float]] | np.ndarray
) -> MapQuality:
    """Best units, quantization and topographic error in one pass."""
    matrix = _checked_matrix(som, data, "map_quality")
    scores = bmu_scores(matrix, som._weights)
    bmus = np.argmin(scores, axis=1)
    return MapQuality(
        bmus=bmus,
        quantization_error=som._quantization_error_of(matrix, bmus),
        topographic_error=_topographic_error_of(som, scores, bmus),
    )


def quantization_error(
    som: SelfOrganizingMap, data: Sequence[Sequence[float]] | np.ndarray
) -> float:
    """Mean Euclidean distance from samples to their BMU weights."""
    matrix = _checked_matrix(som, data, "quantization_error")
    return som._quantization_error_of(matrix)


def topographic_error(
    som: SelfOrganizingMap, data: Sequence[Sequence[float]] | np.ndarray
) -> float:
    """Fraction of samples whose two best units are not adjacent."""
    matrix = _checked_matrix(som, data, "topographic_error")
    scores = bmu_scores(matrix, som._weights)
    return _topographic_error_of(som, scores, np.argmin(scores, axis=1))
