"""Unit tests for SOM quality measures and the U-matrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SOMError
from repro.som.quality import quantization_error, topographic_error
from repro.som.som import SelfOrganizingMap, SOMConfig
from repro.som.umatrix import u_matrix

CONFIG = SOMConfig(rows=5, columns=5, steps_per_sample=200, seed=9)


def _blobs(seed=0):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [
            [0.0, 0.0] + 0.1 * rng.normal(size=(10, 2)),
            [8.0, 8.0] + 0.1 * rng.normal(size=(10, 2)),
        ]
    )


@pytest.fixture(scope="module")
def trained():
    data = _blobs()
    som = SelfOrganizingMap(CONFIG).fit(data)
    return som, data


class TestQuantizationError:
    def test_small_after_training_on_tight_blobs(self, trained):
        som, data = trained
        assert quantization_error(som, data) < 0.5

    def test_zero_when_weights_match_data_exactly(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]])
        som = SelfOrganizingMap(SOMConfig(rows=2, columns=2, seed=1)).fit(data)
        # Force the weights onto the data points.
        som._weights = data.astype(float).copy()
        assert quantization_error(som, data) == pytest.approx(0.0)

    def test_untrained_rejected(self):
        with pytest.raises(SOMError, match="not trained"):
            quantization_error(SelfOrganizingMap(CONFIG), _blobs())

    def test_empty_data_rejected(self, trained):
        som, __ = trained
        with pytest.raises(SOMError, match="non-empty"):
            quantization_error(som, np.empty((0, 2)))


class TestTopographicError:
    def test_in_unit_interval(self, trained):
        som, data = trained
        error = topographic_error(som, data)
        assert 0.0 <= error <= 1.0

    def test_well_trained_map_has_low_error(self, trained):
        som, data = trained
        assert topographic_error(som, data) <= 0.3

    def test_untrained_rejected(self):
        with pytest.raises(SOMError, match="not trained"):
            topographic_error(SelfOrganizingMap(CONFIG), _blobs())

    def test_tied_adjacent_units_are_not_an_error(self):
        """Two identical adjacent units: the second BMU is the other one."""
        data = np.array([[0.5, 0.5], [0.25, 0.75]])
        som = SelfOrganizingMap(SOMConfig(rows=13, columns=13, seed=1)).fit(data)
        # An unstable argsort ranked this tie BMU-first *and* second.
        weights = 10.0 + np.random.default_rng(0).random((169, 2)) * 100.0
        weights[112] = weights[113] = 0.0  # lattice neighbors (8, 8), (8, 9)
        som._weights = weights
        for sample in data:
            assert som.best_matching_unit(sample) == 112
            assert som.second_best_matching_unit(sample) == 113
        assert topographic_error(som, data) == 0.0

    def test_single_unit_map_rejected(self):
        data = _blobs()
        som = SelfOrganizingMap(SOMConfig(rows=1, columns=1, seed=1)).fit(data)
        with pytest.raises(SOMError, match="single unit"):
            topographic_error(som, data)
        with pytest.raises(SOMError, match="single unit"):
            som.second_best_matching_unit(data[0])


class TestInputChecks:
    @pytest.mark.parametrize("gauge", [quantization_error, topographic_error])
    def test_bad_data_rejected(self, trained, gauge):
        som, data = trained
        with pytest.raises(SOMError, match="non-empty 2-D"):
            gauge(som, data[0])
        with pytest.raises(SOMError, match="NaN or inf"):
            gauge(som, np.where(np.eye(20, 2, dtype=bool), np.nan, data))
        with pytest.raises(SOMError, match="dimension 3"):
            gauge(som, np.ones((4, 3)))


class TestUMatrix:
    def test_shape(self, trained):
        som, __ = trained
        assert u_matrix(som).shape == (5, 5)

    def test_non_negative(self, trained):
        som, __ = trained
        assert np.all(u_matrix(som) >= 0.0)

    def test_flat_map_has_zero_umatrix(self):
        data = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        som = SelfOrganizingMap(SOMConfig(rows=3, columns=3, seed=2)).fit(data)
        som._weights = np.ones_like(som._weights)
        assert np.allclose(u_matrix(som), 0.0)

    def test_untrained_rejected(self):
        with pytest.raises(SOMError, match="not trained"):
            u_matrix(SelfOrganizingMap(CONFIG))
