"""The best-matching-unit search of batch SOM training.

The dense search in :mod:`repro.som.bmu` scores every (sample, unit)
pair: ``S * U`` inner products of length ``D`` per epoch.  At the
paper's 13x21 suite that is noise; at 1000 workloads of 500 counters
it was ~95% of the analysis.  This module prunes that product space
with a projected lower bound so the dense kernel only runs on a
shortlist, and returns the dense search's indices bit for bit.  Every
batch fit searches through it, whatever its ``bmu_strategy``.

The bound
---------

Fix an orthonormal basis ``V`` (rows) of a ``q``-dimensional subspace
and a center ``mu``.  The search takes both from the fit's
:class:`~repro.pca.PCA` of the training matrix, the same fit that seeds
the PCA initializer, so a fit diagonalizes its covariance once: the
basis is the top ``q`` principal components and ``mu`` the PCA mean.
A search is built for one matrix and prepares its projected samples on
its first pruned call.  Split any centered vector ``v``
into its projection ``P v`` and residual norm
``v_perp = sqrt(||v||^2 - ||P v||^2)``.  For a sample ``x`` and weight
``w`` (both centered on ``mu``), expanding ``||x - w||^2`` and bounding
the residual cross term with Cauchy-Schwarz gives

    ||x - w||^2 >= ||x||^2 + ||w||^2 - 2 <Px, Pw> - 2 x_perp * w_perp
                =: lb2(x, w)

a true lower bound on the squared distance.  Appending ``x_perp`` and a
constant ``1`` to the projected sample (and ``2 w_perp``, ``-||w||^2``
to the projected weight) folds the whole right-hand side into a single
``(q+2)``-wide GEMM: one float32 matrix product yields
``B[s, u] = ||x_s||^2 - lb2(x_s, w_u)`` for every pair.

The search then probes ``cand0 = argmax(B, axis=1)`` — the unit with
the *tightest* bound — scores it densely, and keeps only units whose
bound cannot rule them out against that score plus a margin.  Rows
where the probe is the sole survivor are done; the rest score their
shortlist with the dense einsum kernel and take the first minimum.

Why the indices are exact
-------------------------

Let ``u*`` be the unit the dense search returns: the first minimum of
the computed scores ``d(u) = ||w_u||^2 - 2 <x, w_u>``.  The shortlist
scores are those same floats (the same einsum reduction over the
features), so ``u*`` wins the shortlist, ties included, as soon as it is
kept; no lower-index unit can tie it there, or the dense search would
have returned that one.  It remains to show the threshold keeps
``u*``.  Write ``t(u)`` for the true squared distance of the stored
vectors.  The margin has two terms:

* **Float32 bound.**  The GEMM rounds ``B`` at the scale of the
  *centered* norms.  A relative slack ``_MARGIN * (||x_c||^2 +
  max ||w_c||^2 + probe score)`` (``_MARGIN = 1e-4``, some 1,000
  float32 ulps) covers it: no unit's computed bound exceeds its true
  distance ``t(u)`` by that much.
* **Dense rounding.**  The dense scores round at the scale of the
  *uncentered* norms.  With machine epsilon ``eps`` and
  ``N = ||x||^2 + 2 max ||w||^2``, a length-``D`` dot product is off
  by at most ``D * eps/2 * ||x|| ||w||``, the weight norm by
  ``D * eps/2 * ||w||^2`` and the subtraction by one more half ulp, so
  each ``d(u)`` is within ``(D + 1) * eps/2 * N`` of its exact value
  (using ``2 ||x|| ||w|| <= ||x||^2 + ||w||^2``).  The probe's score
  ``d(cand0) + ||x||^2`` adds the sample norm's rounding and a last
  half ulp: it is within ``(2D + 3) * eps/2 * N`` of ``t(cand0)``.
  Since ``d(u*) <= d(cand0)``, ``t(u*)`` exceeds the computed probe
  score by at most ``(2D + 5/2) * eps * N``, which the term
  ``2 (D + 2) * eps * N`` covers with second-order terms to spare.

On centered data the second term is negligible (2e-13 of the norms
at 500 features, against 1e-4 for the first).  It matters when the
data sit at a large common offset from the origin relative to their
spread, where two near-tied units can swap order in the dense scores.
There the threshold grows with the offset until the shortlist covers
most pairs and the whole call falls back to the dense search.

Whole-call fallback
-------------------

The search hands the whole call to :func:`repro.som.bmu.bmu_indices`
when pruning cannot pay or cannot help: rank-starved data (``q < 2``:
a one-dimensional projection bounds too loosely), calls below
``_MIN_PRUNED_PAIRS`` sample-unit pairs, a non-finite threshold, or a
shortlist covering more than ``_MAX_SHARE`` of all pairs.  Fallbacks
are exact by construction and counted in the search stats.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Mapping

import numpy as np

from repro.pca.pca import PCA
from repro.som.bmu import bmu_indices

__all__ = ["PrunedBMUSearch"]

try:  # Same raw einsum entry point som.py uses: identical C kernel,
    # so shortlist scores match the exact search bit for bit.
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:  # pragma: no cover - other numpy layouts
    _einsum = np.einsum

_EPS = float(np.finfo(np.float64).eps)

# Whole-call exact fallback below this many (sample, unit) pairs: the
# prefilter's fixed per-call cost (a dozen numpy passes) only pays once
# the dense search has this much to do.  Measured on whole batch fits
# (one BLAS thread): at 12,000 pairs and fewer the search lost or tied
# at 8 to 64 features (it won only at 500 features); from 16,200 pairs
# on it tied at 16 features and won from 32 (200 samples x 81 units:
# 0.84x the dense fit at 32 features, 0.63x at 100).  The table is in
# docs/PERFORMANCE.md.
_MIN_PRUNED_PAIRS = 16_000

# Dimension of the PCA projection the bound uses.  Higher rank tightens
# the bound (smaller shortlists) but widens the prefilter GEMM; 32 keeps
# shortlists near one candidate per sample even on data that is only
# approximately low-rank (log-normal counter matrices), while cleanly
# low-rank data already saturates at 8.
_RANK = 32

# Relative slack added to the keep threshold to absorb float32 rounding
# in the bound matrix (the dense scores' own rounding gets a separate
# term, see the module docstring); small enough that shortlists stay
# tiny.
_MARGIN = 1e-4

# Whole-call exact fallback when the shortlist would cover more than
# this share of all (sample, unit) pairs.
_MAX_SHARE = 0.5


class PrunedBMUSearch:
    """Batch BMU search over one matrix with a projected lower bound.

    Built once per batch fit for its training matrix and called as
    ``search(weights) -> bmus`` once per epoch; returns
    :func:`~repro.som.bmu.bmu_indices`'s indices bit for bit.
    Stateless across epochs (the probe threshold is recomputed from
    the current weights every call), so results are independent of
    call history; only the projected samples (prepared on the first
    pruned call) and the statistics counters persist.

    Parameters
    ----------
    matrix:
        The ``(samples, features)`` matrix every call searches.
    pca:
        A :class:`~repro.pca.PCA` fitted on ``matrix`` (the fit's own,
        shared with the PCA initializer); its mean is the bound's
        center and its leading components the projection basis.
        ``None`` when the matrix has too few samples for a PCA: every
        call then scores densely.
    """

    def __init__(self, matrix: np.ndarray, pca: PCA | None) -> None:
        self.matrix = matrix
        self.pca = pca
        kept = 0 if pca is None else pca.explained_variance.size
        self._q = min(_RANK, matrix.shape[1] - 1, kept)
        self._bound_buf: np.ndarray | None = None
        self._mask_buf: np.ndarray | None = None
        # Lifetime counters; see ``stats``.
        self.calls = 0
        self.pair_total = 0
        self.candidates = 0
        self.exhaustive = 0
        self.fallbacks = 0

    # -- statistics ----------------------------------------------------

    @property
    def pruned_pairs(self) -> int:
        """Pairs never scored exactly (skipped by the bound)."""
        return max(0, self.pair_total - self.candidates - self.exhaustive)

    @property
    def pruning_rate(self) -> float:
        """Share of all (sample, unit) pairs the bound eliminated."""
        if self.pair_total == 0:
            return 0.0
        return self.pruned_pairs / self.pair_total

    def stats(self) -> dict[str, Any]:
        """Snapshot of lifetime counters (JSON-serializable)."""
        return {
            "calls": self.calls,
            "pair_total": self.pair_total,
            "candidates": self.candidates,
            "exhaustive": self.exhaustive,
            "fallbacks": self.fallbacks,
            "pruned_pairs": self.pruned_pairs,
            "pruning_rate": self.pruning_rate,
        }

    # -- the matrix's one preparation ----------------------------------

    @cached_property
    def _prep(self) -> dict[str, Any]:
        assert self.pca is not None
        matrix, q = self.matrix, self._q
        mu = self.pca.mean
        basis = self.pca.components[:q].copy()  # not a view of all D axes
        centered = matrix - mu
        projected = centered @ basis.T
        sq_centered = np.einsum("sd,sd->s", centered, centered)
        residual = np.sqrt(
            np.maximum(
                sq_centered - np.einsum("sq,sq->s", projected, projected),
                0.0,
            )
        )
        # Extended projected samples: [P x, x_perp, 1] so one float32
        # GEMM against [2 P w, 2 w_perp, -||w||^2] yields the bound.
        extended = np.empty((matrix.shape[0], q + 2), dtype=np.float32)
        extended[:, :q] = projected
        extended[:, q] = residual
        extended[:, q + 1] = 1.0
        return {
            "mu": mu,
            "basis": basis,
            "extended": extended,
            "sq_centered": sq_centered,
            "sq_norms": np.einsum("sd,sd->s", matrix, matrix),
        }

    def _extended_weights(
        self, weights: np.ndarray, prep: Mapping[str, Any]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``([2 P w, 2 w_perp, -||w0||^2] in f32, centered norms)``."""
        q = self._q
        centered = weights - prep["mu"]
        projected = centered @ prep["basis"].T
        sq_centered = np.einsum("ud,ud->u", centered, centered)
        residual = np.sqrt(
            np.maximum(
                sq_centered - np.einsum("uq,uq->u", projected, projected),
                0.0,
            )
        )
        extended = np.empty((weights.shape[0], q + 2), dtype=np.float32)
        extended[:, :q] = projected
        extended[:, q] = residual
        extended[:, :q + 1] *= 2.0  # doubled in float32: no f64 temps
        extended[:, q + 1] = -sq_centered
        return extended, sq_centered

    # -- diagnostics ----------------------------------------------------

    def shortlist_mask(
        self, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(mask, probe)`` the search would use, without running it.

        ``mask[s, u]`` is True when unit ``u`` survives the bound
        threshold for sample ``s``; ``probe[s]`` is the
        tightest-bound candidate whose exact score sets the
        threshold.  Test hook: the true BMU must always be inside the
        mask.  Does not touch the lifetime counters.
        """
        bound, probe, neg_thr, _ = self._bound_and_probe(
            weights, out_bound=None
        )
        return bound >= neg_thr[:, None], probe

    def _bound_and_probe(
        self, weights: np.ndarray, *, out_bound: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bound matrix, probe candidate, keep threshold, weight norms.

        ``bound[s, u] = ||x_s0||^2 - lb2(s, u)`` in float32; keeping
        unit ``u`` iff ``lb2 <= exact_probe + margin`` is the same as
        ``bound >= neg_thr[s]``.  The uncentered weight norms come
        along for free so the caller's shortlist scoring does not
        recompute them.
        """
        matrix, prep = self.matrix, self._prep
        ext_weights, sq_centered_w = self._extended_weights(weights, prep)
        bound = np.matmul(prep["extended"], ext_weights.T, out=out_bound)
        probe = np.argmax(bound, axis=1)
        sq_norms_w = _einsum("ud,ud->u", weights, weights)
        exact_probe = np.maximum(
            sq_norms_w[probe]
            - 2.0 * _einsum("sd,sd->s", matrix, weights[probe])
            + prep["sq_norms"],
            0.0,
        )
        sq_centered_x = prep["sq_centered"]
        # Relative slack for the float32 bound plus the dense scores'
        # worst-case rounding at the scale of the uncentered norms (see
        # "Why the indices are exact" in the module docstring).
        dense_error = 2.0 * (matrix.shape[1] + 2) * _EPS * (
            prep["sq_norms"] + 2.0 * float(sq_norms_w.max())
        )
        margin_term = dense_error + _MARGIN * (
            sq_centered_x + float(np.abs(sq_centered_w).max()) + exact_probe
        )
        neg_thr = ((sq_centered_x - exact_probe) - margin_term).astype(
            np.float32
        )
        return bound, probe, neg_thr, sq_norms_w

    # -- the search ------------------------------------------------------

    def __call__(self, weights: np.ndarray) -> np.ndarray:
        matrix = self.matrix
        samples = matrix.shape[0]
        units = weights.shape[0]
        self.calls += 1
        self.pair_total += samples * units
        if self._q < 2 or samples * units < _MIN_PRUNED_PAIRS:
            # Rank-starved data (a one-dimensional projection bounds too
            # loosely to pay) or a call too small for pruning to pay.
            self.exhaustive += samples * units
            self.fallbacks += 1
            return bmu_indices(matrix, weights)

        if self._bound_buf is None or self._bound_buf.shape != (
            samples,
            units,
        ):
            self._bound_buf = np.empty((samples, units), dtype=np.float32)
            self._mask_buf = np.empty((samples, units), dtype=bool)
        bound, probe, neg_thr, sq_norms_w = self._bound_and_probe(
            weights, out_bound=self._bound_buf
        )
        if not np.isfinite(neg_thr).all():
            self.exhaustive += samples * units
            self.fallbacks += 1
            return bmu_indices(matrix, weights)
        mask = np.greater_equal(bound, neg_thr[:, None], out=self._mask_buf)
        # One flat pass over the mask yields the survivors (1-D
        # nonzero skips the slow 2-D multi-index path); flat indices
        # are row-major, so units come out ascending within each row —
        # which makes "first minimum" below the exact search's
        # lowest-index tie-break.
        flat = np.flatnonzero(mask)
        sample_all = flat // units
        unit_all = flat - sample_all * units
        if sample_all.size > _MAX_SHARE * samples * units:
            # The bound barely discriminates (e.g. near-identical
            # weights): one dense exact pass beats segmented scoring.
            self.exhaustive += samples * units
            self.fallbacks += 1
            return bmu_indices(matrix, weights)

        # Rows where the probe is the only survivor are resolved: the
        # sole unit passing its own exact-score threshold is the BMU.
        out = probe
        row_counts = np.bincount(sample_all, minlength=samples)
        keep = row_counts[sample_all] > 1
        sample_idx = sample_all[keep]
        unit_idx = unit_all[keep]
        if sample_idx.size:
            # Segment starts: the first survivor of each multi row
            # (sample_idx is sorted, so row changes mark boundaries).
            starts = np.flatnonzero(np.diff(sample_idx, prepend=-1))
            self.candidates += int(samples - starts.size)
            self.candidates += int(sample_idx.size)
            cross = _einsum(
                "pd,pd->p", matrix[sample_idx], weights[unit_idx]
            )
            # Score in the exact search's own scale (||w||^2 - 2<x,w>,
            # no per-row constant, no clipping): the floats compared
            # here are bit-identical to the ones np.argmin sees in
            # bmu_indices, so winner and tie-break match exactly.
            scores = sq_norms_w[unit_idx] - 2.0 * cross
            seg_len = np.diff(np.append(starts, sample_idx.size))
            row_min = np.minimum.reduceat(scores, starts)
            at_min = np.flatnonzero(scores <= np.repeat(row_min, seg_len))
            rows_at_min = sample_idx[at_min]
            winners, first = np.unique(rows_at_min, return_index=True)
            out[winners] = unit_idx[at_min[first]]
        else:
            self.candidates += int(samples)
        return out
