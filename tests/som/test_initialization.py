"""Unit tests for SOM weight initialization strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SOMError
from repro.pca import PCA
from repro.som.grid import Grid
from repro.som.initialization import (
    pca_initialization,
    random_initialization,
    resolve_initializer,
)


def _correlated_data(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    return np.column_stack([x, 2.0 * x + 0.1 * rng.normal(size=n)])


class TestRandomInitialization:
    def test_shape(self):
        grid = Grid(4, 5)
        weights = random_initialization(
            grid, _correlated_data(), np.random.default_rng(0)
        )
        assert weights.shape == (20, 2)

    def test_weights_inside_bounding_box(self):
        data = _correlated_data()
        weights = random_initialization(
            Grid(6, 6), data, np.random.default_rng(1)
        )
        assert np.all(weights >= data.min(axis=0) - 1e-12)
        assert np.all(weights <= data.max(axis=0) + 1e-12)

    def test_deterministic_given_rng_seed(self):
        data = _correlated_data()
        first = random_initialization(Grid(3, 3), data, np.random.default_rng(7))
        second = random_initialization(Grid(3, 3), data, np.random.default_rng(7))
        assert np.allclose(first, second)

    def test_rejects_nan_data(self):
        with pytest.raises(SOMError, match="NaN"):
            random_initialization(
                Grid(2, 2), np.array([[float("nan")]]), np.random.default_rng(0)
            )


class TestPCAInitialization:
    def test_shape(self):
        weights = pca_initialization(
            Grid(4, 5), _correlated_data(), np.random.default_rng(0)
        )
        assert weights.shape == (20, 2)

    def test_grid_spans_principal_direction(self):
        """Columns of the grid should sweep along the first principal
        axis, so corner units differ most along the dominant direction."""
        data = _correlated_data()
        grid = Grid(3, 5)
        weights = pca_initialization(grid, data, np.random.default_rng(0))
        left = weights[grid.index_of(1, 0)]
        right = weights[grid.index_of(1, 4)]
        span = right - left
        principal = np.array([1.0, 2.0]) / np.sqrt(5.0)
        cosine = abs(span @ principal) / np.linalg.norm(span)
        assert cosine == pytest.approx(1.0, abs=0.05)

    def test_center_unit_near_data_mean(self):
        data = _correlated_data()
        grid = Grid(3, 3)
        weights = pca_initialization(grid, data, np.random.default_rng(0))
        center = weights[grid.index_of(1, 1)]
        assert np.allclose(center, data.mean(axis=0), atol=1e-9)

    def test_falls_back_to_random_for_tiny_datasets(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0]])
        weights = pca_initialization(Grid(2, 2), data, np.random.default_rng(0))
        assert weights.shape == (4, 2)
        assert np.all(weights >= -1e-12) and np.all(weights <= 1.0 + 1e-12)

    def test_a_shared_full_pca_gives_the_same_weights_bitwise(self):
        """The SOM fit passes its one full PCA; only the two major axes
        are read, so the weights match a two-component fit exactly."""
        data = np.random.default_rng(4).normal(size=(40, 7)) @ np.diag(
            [5.0, 3.0, 2.0, 1.0, 0.5, 0.2, 0.1]
        )
        grid = Grid(4, 6)
        own = pca_initialization(grid, data, np.random.default_rng(0))
        shared = pca_initialization(
            grid, data, np.random.default_rng(0), PCA().fit(data)
        )
        assert np.array_equal(own, shared)

    def test_single_row_grid(self):
        weights = pca_initialization(
            Grid(1, 6), _correlated_data(), np.random.default_rng(0)
        )
        assert weights.shape == (6, 2)


class TestResolveInitializer:
    def test_known_names(self):
        assert resolve_initializer("random") is random_initialization
        assert resolve_initializer("pca") is pca_initialization

    def test_unknown_name(self):
        with pytest.raises(SOMError, match="unknown initializer"):
            resolve_initializer("kmeans")
