"""Distance metrics between characteristic vectors.

The paper uses Euclidean distance both for the SOM best-matching-unit
search (Section III-A) and as the point-to-point distance underneath
complete-linkage clustering (Section III-B).  Additional metrics are
provided for ablation studies; every metric shares the same
``(vector, vector) -> float`` signature so callers can swap them by
name through :func:`resolve_metric`.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.exceptions import MeasurementError

__all__ = [
    "euclidean_distance",
    "squared_euclidean_distance",
    "manhattan_distance",
    "chebyshev_distance",
    "cosine_distance",
    "pairwise_distances",
    "resolve_metric",
    "DISTANCE_METRICS",
]

DistanceMetric = Callable[[np.ndarray, np.ndarray], float]


def _as_pair(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Validate a pair of equal-length finite 1-D vectors."""
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise MeasurementError(
            f"distance: expected 1-D vectors, got shapes {a.shape} and {b.shape}"
        )
    if a.shape != b.shape:
        raise MeasurementError(
            f"distance: dimension mismatch ({a.size} vs {b.size})"
        )
    if a.size == 0:
        raise MeasurementError("distance: empty vectors")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise MeasurementError("distance: vectors contain NaN or infinite values")
    return a, b


def squared_euclidean_distance(x: Sequence[float], y: Sequence[float]) -> float:
    """Squared L2 distance; cheaper than :func:`euclidean_distance` for argmin."""
    a, b = _as_pair(x, y)
    diff = a - b
    return float(np.dot(diff, diff))


def euclidean_distance(x: Sequence[float], y: Sequence[float]) -> float:
    """L2 distance, the paper's point-to-point metric."""
    return float(np.sqrt(squared_euclidean_distance(x, y)))


def manhattan_distance(x: Sequence[float], y: Sequence[float]) -> float:
    """L1 distance."""
    a, b = _as_pair(x, y)
    return float(np.sum(np.abs(a - b)))


def chebyshev_distance(x: Sequence[float], y: Sequence[float]) -> float:
    """L-infinity distance."""
    a, b = _as_pair(x, y)
    return float(np.max(np.abs(a - b)))


def cosine_distance(x: Sequence[float], y: Sequence[float]) -> float:
    """One minus the cosine similarity.

    Useful for the Java method-utilization bit vectors where the number
    of shared methods matters more than vector magnitude.  Computed as
    ``||a/||a|| - b/||b||||^2 / 2``, which equals ``1 - cos`` but keeps
    its accuracy for near-parallel vectors, where ``1 - cos`` cancels
    to zero.  Raises on zero vectors, where the angle is undefined.
    """
    a, b = _as_pair(x, y)
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise MeasurementError("cosine_distance: undefined for a zero vector")
    diff = a / norm_a - b / norm_b
    return 0.5 * float(np.dot(diff, diff))


DISTANCE_METRICS: Mapping[str, DistanceMetric] = {
    "euclidean": euclidean_distance,
    "sqeuclidean": squared_euclidean_distance,
    "manhattan": manhattan_distance,
    "chebyshev": chebyshev_distance,
    "cosine": cosine_distance,
}


def resolve_metric(metric: str | DistanceMetric) -> DistanceMetric:
    """Return a metric callable from a name or pass a callable through."""
    if callable(metric):
        return metric
    try:
        return DISTANCE_METRICS[metric]
    except KeyError:
        known = ", ".join(sorted(DISTANCE_METRICS))
        raise MeasurementError(
            f"unknown distance metric {metric!r}; known metrics: {known}"
        ) from None


def pairwise_distances(
    points: Sequence[Sequence[float]] | np.ndarray,
    *,
    metric: str | DistanceMetric = "euclidean",
) -> np.ndarray:
    """Symmetric matrix of pairwise distances between row vectors.

    The diagonal is exactly zero.  Vectorized fast paths cover all
    five named metrics (Gram-matrix expansions for the Euclidean
    family and cosine, which runs it on the unit rows, and broadcast
    reductions for L1/L-inf); metric
    callables fall back to the generic pairwise loop.  The fast paths
    are cross-checked against the loop form by the equivalence tests.
    """
    array = np.asarray(points, dtype=float)
    if array.ndim != 2:
        raise MeasurementError(
            f"pairwise_distances: expected a 2-D array, got shape {array.shape}"
        )
    if array.shape[0] == 0:
        raise MeasurementError("pairwise_distances: no points")
    if not np.all(np.isfinite(array)):
        raise MeasurementError("pairwise_distances: points contain NaN/inf")

    if metric in ("euclidean", "sqeuclidean"):
        return _pairwise_euclidean(array, squared=metric == "sqeuclidean")

    if metric in ("manhattan", "chebyshev"):
        return _pairwise_elementwise(array, metric)

    if metric == "cosine":
        # Half the squared Euclidean distance between the unit rows, as
        # the scalar metric computes it.
        norms = np.linalg.norm(array, axis=1)
        if np.any(norms == 0.0):
            raise MeasurementError("cosine_distance: undefined for a zero vector")
        return 0.5 * _pairwise_euclidean(array / norms[:, None], squared=True)

    metric_fn = resolve_metric(metric)
    count = array.shape[0]
    matrix = np.zeros((count, count), dtype=float)
    for i in range(count):
        for j in range(i + 1, count):
            value = metric_fn(array[i], array[j])
            matrix[i, j] = value
            matrix[j, i] = value
    return matrix


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _pairwise_euclidean(array: np.ndarray, *, squared: bool) -> np.ndarray:
    """Euclidean (or squared) distances: Gram expansion, exact fallback.

    ``||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b`` rounds at the scale of the
    norms: each value is within ``(D + 2) eps (||a||^2 + ||b||^2)`` of
    the truth (plus the subnormal spacing where squares underflow).  A
    pair that does not clear that bound by ``1 / sqrt(eps)`` (near
    duplicates, a large common offset, coordinates below ~1e-154) is
    recomputed from its coordinate differences, scaled by the largest so
    nothing underflows.  Small-integer coordinates (SOM cells) expand
    exactly and only their coincident pairs are recomputed, to the same
    zero, so their distances stay bitwise.
    """
    count = array.shape[0]
    squared_norms = np.sum(array * array, axis=1)
    expanded = squared_norms[:, None] + squared_norms[None, :]
    gram = array @ array.T
    gram *= 2.0
    expanded -= gram
    # Screen against the largest bound, then keep the pairs within their
    # own; every negative value is among them.
    factor = (array.shape[1] + 2) * np.sqrt(_EPS)
    flat_values = expanded.reshape(-1)
    flat = np.flatnonzero(
        expanded <= factor * (2.0 * float(squared_norms.max()) + _TINY)
    )
    rows, cols = np.divmod(flat, count)
    own = factor * (squared_norms[rows] + squared_norms[cols] + _TINY)
    unsure = flat_values[flat] <= own
    flat, rows, cols = flat[unsure], rows[unsure], cols[unsure]
    exact = _difference_norms(array, rows, cols)
    if squared:
        flat_values[flat] = exact * exact
    else:
        flat_values[flat] = 0.0
        np.sqrt(expanded, out=expanded)
        flat_values[flat] = exact
    np.fill_diagonal(expanded, 0.0)
    return expanded


def _difference_norms(
    array: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """``||array[rows] - array[cols]||`` per pair, underflow-safe."""
    out = np.empty(rows.size)
    step = max(1, _BROADCAST_BUDGET_BYTES // (8 * array.shape[1]))
    for start in range(0, rows.size, step):
        chunk = slice(start, start + step)
        diff = array[rows[chunk]] - array[cols[chunk]]
        scale = np.max(np.abs(diff), axis=1)
        diff /= np.where(scale > 0.0, scale, 1.0)[:, None]
        out[chunk] = scale * np.sqrt(np.einsum("pd,pd->p", diff, diff))
    return out


# 3-D broadcast of an (n, n, dim) difference tensor is fastest for
# small inputs but quadratic in memory; above this budget the fast
# path reduces one broadcast row at a time instead.
_BROADCAST_BUDGET_BYTES = 16 * 1024 * 1024


def _pairwise_elementwise(array: np.ndarray, metric: str) -> np.ndarray:
    """Broadcast fast path for the elementwise metrics (L1, L-inf)."""
    reduce = np.sum if metric == "manhattan" else np.max
    count, dim = array.shape
    if count * count * dim * 8 <= _BROADCAST_BUDGET_BYTES:
        matrix = reduce(
            np.abs(array[:, None, :] - array[None, :, :]), axis=2
        )
    else:
        matrix = np.empty((count, count))
        for i in range(count):
            matrix[i] = reduce(np.abs(array - array[i]), axis=1)
    np.fill_diagonal(matrix, 0.0)
    return matrix
