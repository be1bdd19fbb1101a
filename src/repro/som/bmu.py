"""Row-independent best-matching-unit search.

:func:`bmu_indices` is the dense BMU search: the one
:meth:`~repro.som.som.SelfOrganizingMap.project` and the quality gauges
run, and the one whose indices batch training's pruned search
(:mod:`repro.som.bmu_fast`) returns bit for bit.  It evaluates the
cross terms with numpy's raw ``c_einsum`` kernel rather than a
BLAS-backed ``matrix @ weights.T``, whose blocking and threading
strategy depends on the operand shapes.  The einsum kernel accumulates
each output element over the feature axis independently of every
other row, so the result for a sample is a pure function of that
sample and the weights: a row slice of the matrix gets bitwise the
same answers as the same rows of a full-matrix call (pinned by
``tests/som/test_bmu_invariance.py``).

The kernel is kept for two reasons.  The golden batch fixtures were
recorded with it, and the pruned search scores its shortlists with the
same einsum, and falls back to this function for whole calls, so its
winners match this search bit for bit.  :func:`bmu_best_two` ranks the
same scores for a sample's best and second-best unit: the quality
gauges' dense path, and the ranking the pruned search's top-two query
returns bit for bit.
"""

from __future__ import annotations

import numpy as np

try:  # Same C kernel as np.einsum, minus the parsing wrapper.
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:  # pragma: no cover - other numpy layouts
    _einsum = np.einsum

__all__ = ["bmu_best_two", "bmu_indices", "bmu_scores"]


def bmu_scores(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-sample unit scores, shape ``(n, units)``; lower is nearer.

    Squared distances via the expansion trick
    ``||w||^2 - 2 <x, w>`` (the ``||x||^2`` term is constant per row
    and cannot change any ranking), with both reductions computed by
    einsum so every output row is independent of the others.  The
    quality gauges of :mod:`repro.som.quality` rank the same matrix,
    so their best units are bitwise the ones :func:`bmu_indices`
    returns.

    The combination runs in place on the cross-term buffer: scaling by
    ``-2`` is exact and ``a + (-2c)`` rounds like ``a - 2c``, so the
    scores are bitwise those of ``weight_norms - 2.0 * cross`` without
    two temporaries the size of the score matrix.
    """
    weight_norms = _einsum("ud,ud->u", weights, weights)
    scores = _einsum("sd,ud->su", matrix, weights)
    scores *= -2.0
    scores += weight_norms
    return scores


def bmu_indices(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-sample index of the nearest weight vector, shape ``(n,)``."""
    return np.argmin(bmu_scores(matrix, weights), axis=1)


def bmu_best_two(
    matrix: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample best and second-best unit, each shape ``(n,)``.

    Units rank by ``(score, index)``: the best is :func:`bmu_indices`'s
    unit and the second the argmin with the best masked out, so a tie
    at the top puts the lower index first and the other one second.
    Needs at least two units.
    """
    scores = bmu_scores(matrix, weights)
    best = np.argmin(scores, axis=1)
    scores[np.arange(scores.shape[0]), best] = np.inf
    return best, np.argmin(scores, axis=1)
