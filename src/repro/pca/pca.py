"""From-scratch PCA via eigendecomposition of the covariance matrix.

Deliberately minimal: fit, transform, inverse-transform, explained
variance — enough for SOM initialization and for the PCA-versus-SOM
ablation, without depending on scikit-learn.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import CharacterizationError

__all__ = ["PCA", "explained_variance_ratio", "principal_plane"]


def _as_data_matrix(data: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    matrix = np.asarray(data, dtype=float)
    if matrix.ndim != 2:
        raise CharacterizationError(
            f"PCA: expected a 2-D (samples x features) matrix, got {matrix.shape}"
        )
    if matrix.shape[0] < 2:
        raise CharacterizationError("PCA: need at least two samples")
    if not np.all(np.isfinite(matrix)):
        raise CharacterizationError("PCA: data contains NaN or inf")
    return matrix


class PCA:
    """Principal Components Analysis on mean-centered data.

    Components are the eigenvectors of the sample covariance matrix,
    ordered by decreasing eigenvalue.  Signs are fixed so the largest
    absolute coordinate of each component is positive, making fits
    deterministic across platforms.

    Example
    -------
    >>> pca = PCA(n_components=1).fit([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    >>> pca.explained_variance_ratio[0]
    1.0
    """

    def __init__(self, n_components: int | None = None) -> None:
        if n_components is not None and n_components < 1:
            raise CharacterizationError("PCA: n_components must be >= 1")
        self._n_components = n_components
        self._mean: np.ndarray | None = None
        self._components: np.ndarray | None = None
        self._eigenvalues: np.ndarray | None = None

    # -- fitting ---------------------------------------------------------

    def fit(self, data: Sequence[Sequence[float]] | np.ndarray) -> "PCA":
        """Learn the principal axes of ``data`` (samples in rows)."""
        matrix = _as_data_matrix(data)
        n_samples, n_features = matrix.shape
        wanted = self._n_components or min(n_samples - 1, n_features)
        if wanted > n_features:
            raise CharacterizationError(
                f"PCA: asked for {wanted} components from {n_features} features"
            )

        self._mean = matrix.mean(axis=0)
        centered = matrix - self._mean
        covariance = (centered.T @ centered) / (n_samples - 1)
        eigenvalues, eigenvectors = np.linalg.eigh(covariance)
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues = np.clip(eigenvalues[order], 0.0, None)
        eigenvectors = eigenvectors[:, order]

        components = eigenvectors[:, :wanted].T
        # Deterministic sign convention: each row's largest absolute
        # coordinate is positive (negating is exact).
        pivots = components[
            np.arange(wanted), np.argmax(np.abs(components), axis=1)
        ]
        components *= np.where(pivots < 0.0, -1.0, 1.0)[:, None]
        self._components = components
        self._eigenvalues = eigenvalues
        return self

    def _require_fitted(self) -> None:
        if self._components is None:
            raise CharacterizationError("PCA: not fitted yet")

    # -- accessors ----------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has run."""
        return self._components is not None

    @property
    def components(self) -> np.ndarray:
        """Principal axes as rows, strongest first."""
        self._require_fitted()
        assert self._components is not None
        return self._components.copy()

    @property
    def mean(self) -> np.ndarray:
        """Per-feature mean removed before projection."""
        self._require_fitted()
        assert self._mean is not None
        return self._mean.copy()

    @property
    def explained_variance(self) -> np.ndarray:
        """Eigenvalues of the kept components."""
        self._require_fitted()
        assert self._eigenvalues is not None and self._components is not None
        return self._eigenvalues[: self._components.shape[0]].copy()

    @property
    def explained_variance_ratio(self) -> np.ndarray:
        """Fraction of total variance captured by each kept component."""
        self._require_fitted()
        assert self._eigenvalues is not None
        total = float(self._eigenvalues.sum())
        if total == 0.0:
            raise CharacterizationError(
                "PCA: data has zero variance; ratios are undefined"
            )
        return self.explained_variance / total

    # -- projection -----------------------------------------------------------

    def transform(self, data: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
        """Project samples onto the principal axes."""
        self._require_fitted()
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim != 2:
            raise CharacterizationError(
                f"PCA.transform: expected a 2-D matrix, got {matrix.shape}"
            )
        assert self._mean is not None and self._components is not None
        if matrix.shape[1] != self._mean.size:
            raise CharacterizationError(
                f"PCA.transform: feature count {matrix.shape[1]} does not match "
                f"fitted count {self._mean.size}"
            )
        return (matrix - self._mean) @ self._components.T

    def fit_transform(self, data: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
        """Fit on ``data`` and return its projection."""
        return self.fit(data).transform(data)

    def inverse_transform(self, projected: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
        """Map projected coordinates back into feature space."""
        self._require_fitted()
        coords = np.asarray(projected, dtype=float)
        if coords.ndim != 2:
            raise CharacterizationError(
                f"PCA.inverse_transform: expected a 2-D matrix, got {coords.shape}"
            )
        assert self._mean is not None and self._components is not None
        if coords.shape[1] != self._components.shape[0]:
            raise CharacterizationError(
                "PCA.inverse_transform: coordinate width "
                f"{coords.shape[1]} does not match component count "
                f"{self._components.shape[0]}"
            )
        return coords @ self._components + self._mean


def explained_variance_ratio(
    data: Sequence[Sequence[float]] | np.ndarray,
) -> np.ndarray:
    """One-shot explained-variance profile of a dataset."""
    return PCA().fit(data).explained_variance_ratio


def principal_plane(
    data: Sequence[Sequence[float]] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and the two major principal axes of ``data``.

    This is the subspace the paper samples to initialize SOM weight
    vectors.  For effectively one-dimensional data the second axis is
    still returned (with ~zero variance along it), so the SOM grid can
    always be seeded.
    """
    matrix = _as_data_matrix(data)
    pca = PCA(n_components=min(2, matrix.shape[1])).fit(matrix)
    components = pca.components
    if components.shape[0] < 2:
        # Single-feature data: fabricate an orthogonal second axis of zeros.
        second = np.zeros_like(components[0])
        return pca.mean, components[0], second
    return pca.mean, components[0], components[1]
