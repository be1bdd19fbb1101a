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
    batch epoch verbatim.  The kernel runs on the ``(U, U)`` table and
    its rows are gathered after: a kernel is elementwise in the squared
    distance (:class:`~repro.som.neighborhood.NeighborhoodKernel`), so
    the gathered rows are bitwise ``kernel(sq_table[bmus], sigma)`` for
    ``U**2`` evaluations instead of ``S * U``.
    """
    influence = kernel(sq_table, sigma)[bmus]
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
    to the exact terms; numerically a reordering of the same additions,
    which is why it is the tolerance-bounded ``pruned`` strategy and
    never the exact one.

    The grouped ``(counts | sums)`` matrix is built once, on the first
    epoch, as one one-hot GEMM (``onehot @ matrix`` with ``onehot[b, s]
    = 1`` where sample ``s`` maps to ``b``).  After that it is kept up
    to date by delta: only the ``c`` samples whose BMU moved enter, as
    one ``(U, c)`` matrix of ``+1`` at the new unit and ``-1`` at the
    old one times their rows.  Counts stay exact integers; the sums
    carry the rounding of every earlier delta, and the terms stay
    within ~1e-14 of the exact terms of the same BMUs (relative to each
    term's largest entry, every epoch of a 50-epoch fit at 1000x500).
    An instance carries that state from one epoch to the next, so each
    fit owns exactly one.
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
        if self._grouped is None:
            # The first epoch groups every sample: a one-hot delta.
            self._grouped = np.zeros((weights.shape[0], matrix.shape[1] + 1))
            self._add(bmus, None, matrix)
        else:
            moved = np.flatnonzero(self._bmus != bmus)
            if moved.size:
                self._add(bmus[moved], self._bmus[moved], matrix[moved])
        self._bmus = bmus.copy()
        out = kernel(sq_table, sigma).T @ self._grouped
        return EpochTerms(out[:, 0], out[:, 1:])

    def _add(
        self, new: np.ndarray, old: np.ndarray | None, rows: np.ndarray
    ) -> None:
        """``(counts | sums) += delta @ [1 | rows]`` for the moved rows.

        ``delta[:, j]`` is ``+1`` at row ``j``'s new unit and ``-1`` at
        its old one (none on the first epoch).
        """
        grouped = self._grouped
        assert grouped is not None
        delta = np.zeros((grouped.shape[0], new.size))
        columns = np.arange(new.size)
        delta[new, columns] = 1.0
        if old is not None:
            delta[old, columns] = -1.0
        grouped[:, 0] += delta.sum(axis=1)
        grouped[:, 1:] += delta @ rows
