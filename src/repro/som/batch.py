"""Batch-epoch arithmetic: per-epoch terms, then one apply step.

One Kohonen batch epoch decomposes into *terms* — the influence-
weighted sample count and sample sum per unit:

    totals[u]       = sum_s kernel(d2(bmu_s, u), sigma)
    numerator[u, :] = sum_s kernel(d2(bmu_s, u), sigma) * x_s

followed by an *apply* step ``w_u = numerator[u] / totals[u]`` for
every active unit.  Both batch strategies of
:class:`~repro.som.som.SelfOrganizingMap` run an epoch the same way:
search the BMUs with the fit's one
:class:`~repro.som.bmu_fast.PrunedBMUSearch` (bitwise the dense
search's indices), compute the terms, and hand them to
:func:`apply_epoch_terms`.  The strategy picks only the terms
arithmetic: :func:`exact_epoch_terms` (exact) or a
:class:`GroupedEpochTerms` instance (pruned).

Determinism contract: :func:`exact_epoch_terms` followed by
:func:`apply_epoch_terms` is the golden-pinned batch epoch — kernel
gather, ``sum(axis=0)``, ``influence.T @ matrix``, masked divide — so
every exact batch fit is bitwise identical to the reference loop in
``tests/reference_kernels.py``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "EpochTerms",
    "GroupedEpochTerms",
    "apply_epoch_terms",
    "exact_epoch_terms",
]


class EpochTerms(NamedTuple):
    """Additive accumulator state of one batch epoch."""

    totals: np.ndarray  # (n_units,)
    numerator: np.ndarray  # (n_units, dim)


def exact_epoch_terms(
    weights: np.ndarray,
    matrix: np.ndarray,
    *,
    kernel: Callable[[np.ndarray, float], np.ndarray],
    sq_table: np.ndarray,
    sigma: float,
    bmus: np.ndarray,
) -> EpochTerms:
    """Terms of one exact batch epoch over ``matrix``.

    ``bmus`` holds each sample's best-matching unit under ``weights``;
    ``weights`` itself is unused and only keeps the signature shared
    with :class:`GroupedEpochTerms`.  The op sequence (kernel gather,
    ``sum(axis=0)``, ``influence.T @ matrix``) is the golden-pinned
    batch epoch verbatim.
    """
    influence = kernel(sq_table[bmus], sigma)
    totals = influence.sum(axis=0)
    numerator = influence.T @ matrix
    return EpochTerms(totals, numerator)


def apply_epoch_terms(weights: np.ndarray, terms: EpochTerms) -> np.ndarray:
    """In-place batch update from one epoch's terms (golden-pinned ops)."""
    active = terms.totals > 1e-12
    weights[active] = terms.numerator[active] / terms.totals[active, None]
    return weights


class GroupedEpochTerms:
    """Epoch terms via per-BMU grouping — the pruned strategy's update.

    The exact epoch materializes an ``(S, U)`` influence matrix and
    reduces it twice.  But influence only depends on the sample through
    its BMU: grouping samples by BMU first gives

        totals    = K.T @ counts          numerator = K.T @ sums

    where ``K[b, u] = kernel(d2(b, u), sigma)`` is the tiny ``(U, U)``
    kernel table, ``counts[b]`` the number of samples mapped to unit
    ``b`` and ``sums[b]`` their vector sum.  Mathematically identical
    to the exact terms; numerically a reordering of the same additions
    (observed relative error ~1e-13), which is why it is the
    tolerance-bounded ``pruned`` strategy and never the exact one.

    Between consecutive epochs few samples change BMU, so the grouped
    ``(counts | sums)`` matrix is maintained incrementally when fewer
    than ``max(8, S // 8)`` rows moved.  The incremental adds are
    unordered (``np.add.at``), which is fine inside an explicitly
    tolerance-bounded path.  An instance carries that state from one
    epoch to the next, so each fit owns exactly one.
    """

    def __init__(self) -> None:
        self._bmus: np.ndarray | None = None
        self._grouped: np.ndarray | None = None

    def __call__(
        self,
        weights: np.ndarray,
        matrix: np.ndarray,
        *,
        kernel: Callable[[np.ndarray, float], np.ndarray],
        sq_table: np.ndarray,
        sigma: float,
        bmus: np.ndarray,
    ) -> EpochTerms:
        units = weights.shape[0]
        dim = matrix.shape[1]
        kernel_table = kernel(sq_table, sigma)
        if self._bmus is not None and self._bmus.shape == bmus.shape:
            changed = np.flatnonzero(self._bmus != bmus)
            if changed.size == 0:
                pass
            elif changed.size <= max(8, matrix.shape[0] // 8):
                grouped = self._grouped
                old = self._bmus[changed]
                new = bmus[changed]
                np.subtract.at(grouped[:, 0], old, 1.0)
                np.add.at(grouped[:, 0], new, 1.0)
                np.subtract.at(grouped[:, 1:], old, matrix[changed])
                np.add.at(grouped[:, 1:], new, matrix[changed])
                self._bmus = bmus.copy()
            else:
                self._rebuild(units, dim, matrix, bmus)
        else:
            self._rebuild(units, dim, matrix, bmus)
        out = kernel_table.T @ self._grouped
        return EpochTerms(out[:, 0], out[:, 1:])

    def _rebuild(
        self, units: int, dim: int, matrix: np.ndarray, bmus: np.ndarray
    ) -> None:
        counts = np.bincount(bmus, minlength=units).astype(float)
        order = np.argsort(bmus, kind="stable")
        sorted_bmus = bmus[order]
        occupied, starts = np.unique(sorted_bmus, return_index=True)
        grouped = np.zeros((units, dim + 1))
        grouped[:, 0] = counts
        grouped[occupied, 1:] = np.add.reduceat(matrix[order], starts, axis=0)
        self._bmus = bmus.copy()
        self._grouped = grouped
