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
errors from one ranking; the reduce stage uses it.  Given the batch
fit's :class:`~repro.som.bmu_fast.PrunedBMUSearch` it takes that
ranking from the search's top-two query, bitwise the dense one,
instead of a dense score pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import SOMError
from repro.som.bmu import bmu_best_two
from repro.som.bmu_fast import PrunedBMUSearch
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


def _best_two(
    som: SelfOrganizingMap,
    matrix: np.ndarray,
    search: PrunedBMUSearch | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Best and second-best units, from ``search`` when it covers ``matrix``."""
    if som._weights.shape[0] < 2:
        raise SOMError("SOM: map has a single unit; no second BMU exists")
    if search is not None and search.matrix is matrix:
        return search.best_two(som._weights)
    return bmu_best_two(matrix, som._weights)


def _topographic_error_of(
    som: SelfOrganizingMap, best: np.ndarray, second: np.ndarray
) -> float:
    adjacent = som.grid.lattice_neighbor_mask(best, second)
    return int(np.count_nonzero(~adjacent)) / best.size


def map_quality(
    som: SelfOrganizingMap,
    data: Sequence[Sequence[float]] | np.ndarray,
    *,
    search: PrunedBMUSearch | None = None,
) -> MapQuality:
    """Best units, quantization and topographic error from one ranking.

    ``search`` is the batch fit's BMU search; when it was built for
    this very matrix its top-two query ranks the units (bitwise the
    dense ranking), otherwise one dense score pass does.
    """
    matrix = _checked_matrix(som, data, "map_quality")
    best, second = _best_two(som, matrix, search)
    return MapQuality(
        bmus=best,
        quantization_error=som._quantization_error_of(matrix, best),
        topographic_error=_topographic_error_of(som, best, second),
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
    return _topographic_error_of(som, *_best_two(som, matrix))
