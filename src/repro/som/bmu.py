"""Row-independent best-matching-unit search.

:func:`bmu_indices` is the exact BMU search of batch training and of
:meth:`~repro.som.som.SelfOrganizingMap.project`.  It evaluates the
cross terms with numpy's raw ``c_einsum`` kernel rather than a
BLAS-backed ``matrix @ weights.T``, whose blocking and threading
strategy depends on the operand shapes.  The einsum kernel accumulates
each output element over the feature axis independently of every
other row, so the result for a sample is a pure function of that
sample and the weights: a row slice of the matrix gets bitwise the
same answers as the same rows of a full-matrix call (pinned by
``tests/som/test_bmu_invariance.py``).

The kernel is kept for two reasons.  The golden batch fixtures were
recorded with it, and the pruned search of :mod:`repro.som.bmu_fast`
scores its shortlists with the same einsum so its winners match this
search bit for bit.
"""

from __future__ import annotations

import numpy as np

try:  # Same C kernel as np.einsum, minus the parsing wrapper.
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:  # pragma: no cover - other numpy layouts
    _einsum = np.einsum

__all__ = ["bmu_indices"]


def bmu_indices(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-sample index of the nearest weight vector, shape ``(n,)``.

    Squared distances via the expansion trick
    ``||w||^2 - 2 <x, w>`` (the ``||x||^2`` term is constant per row
    and cannot change the argmin), with both reductions computed by
    einsum so every output row is independent of the others.
    """
    weight_norms = _einsum("ud,ud->u", weights, weights)
    cross = _einsum("sd,ud->su", matrix, weights)
    return np.argmin(weight_norms[None, :] - 2.0 * cross, axis=1)

