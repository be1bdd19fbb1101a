"""Unit and property tests for the distance metrics."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro.exceptions import MeasurementError
from repro.stats.distance import (
    DISTANCE_METRICS,
    chebyshev_distance,
    cosine_distance,
    euclidean_distance,
    manhattan_distance,
    pairwise_distances,
    resolve_metric,
    squared_euclidean_distance,
)


class TestPointDistances:
    def test_euclidean_345(self):
        assert euclidean_distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_squared_euclidean(self):
        assert squared_euclidean_distance([0.0, 0.0], [3.0, 4.0]) == (
            pytest.approx(25.0)
        )

    def test_manhattan(self):
        assert manhattan_distance([1.0, 2.0], [4.0, -2.0]) == pytest.approx(7.0)

    def test_chebyshev(self):
        assert chebyshev_distance([1.0, 2.0], [4.0, -2.0]) == pytest.approx(4.0)

    def test_cosine_orthogonal(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_cosine_parallel(self):
        assert cosine_distance([1.0, 2.0], [2.0, 4.0]) == pytest.approx(0.0)

    def test_cosine_rejects_zero_vector(self):
        with pytest.raises(MeasurementError, match="zero vector"):
            cosine_distance([0.0, 0.0], [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(MeasurementError, match="mismatch"):
            euclidean_distance([1.0], [1.0, 2.0])

    def test_empty_vectors(self):
        with pytest.raises(MeasurementError, match="empty"):
            euclidean_distance([], [])

    def test_nan_rejected(self):
        with pytest.raises(MeasurementError, match="NaN"):
            manhattan_distance([float("nan")], [1.0])


class TestResolveMetric:
    def test_by_name(self):
        assert resolve_metric("euclidean") is euclidean_distance

    def test_callable_passthrough(self):
        fn = lambda a, b: 0.0  # noqa: E731
        assert resolve_metric(fn) is fn

    def test_unknown_name(self):
        with pytest.raises(MeasurementError, match="unknown distance metric"):
            resolve_metric("hamming-ish")


class TestPairwiseDistances:
    def test_matches_pointwise_euclidean(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        matrix = pairwise_distances(points)
        for i in range(3):
            for j in range(3):
                assert matrix[i, j] == pytest.approx(
                    euclidean_distance(points[i], points[j]), abs=1e-9
                )

    def test_diagonal_is_zero(self):
        points = np.random.default_rng(0).normal(size=(6, 4))
        matrix = pairwise_distances(points)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_symmetry(self):
        points = np.random.default_rng(1).normal(size=(5, 3))
        matrix = pairwise_distances(points, metric="manhattan")
        assert np.allclose(matrix, matrix.T)

    def test_sqeuclidean_fast_path(self):
        points = np.array([[0.0], [2.0]])
        matrix = pairwise_distances(points, metric="sqeuclidean")
        assert matrix[0, 1] == pytest.approx(4.0)

    def test_generic_metric_loop(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0]])
        matrix = pairwise_distances(points, metric="cosine")
        assert matrix[0, 1] == pytest.approx(1.0)

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e8])
    def test_accurate_far_from_the_origin(self, offset):
        """The Gram expansion cancels at a large common offset; those
        pairs are recomputed from their differences."""
        points = np.random.default_rng(0).normal(size=(60, 3))
        exact = np.sqrt(
            ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        )
        for metric, expected in (("euclidean", exact), ("sqeuclidean", exact**2)):
            result = pairwise_distances(points + offset, metric=metric)
            np.testing.assert_allclose(result, expected, rtol=1e-7, atol=1e-12)

    def test_tiny_coordinates_do_not_underflow(self):
        """Squares of coordinates below ~1e-154 underflow; distances
        between them still come out nonzero and scale exactly."""
        points = np.array([[0.0], [7.83656442e-163], [0.0]])
        distances = pairwise_distances(points)
        assert distances[0, 1] == distances[1, 2] == 7.83656442e-163
        assert distances[0, 2] == 0.0
        assert np.array_equal(pairwise_distances(points * 4.0), 4.0 * distances)

    def test_integer_cells_expand_exactly(self):
        """SOM-cell coordinates: every distance is the correctly
        rounded square root of an exact integer."""
        cells = np.random.default_rng(1).integers(0, 13, size=(200, 2))
        points = cells.astype(float)
        squared = ((cells[:, None, :] - cells[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(pairwise_distances(points), np.sqrt(squared))
        assert np.array_equal(
            pairwise_distances(points, metric="sqeuclidean"), squared
        )

    def test_rejects_1d(self):
        with pytest.raises(MeasurementError, match="2-D"):
            pairwise_distances([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(MeasurementError, match="no points"):
            pairwise_distances(np.empty((0, 3)))


finite_vectors = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
    )
)


@given(finite_vectors)
def test_metric_axioms(vectors):
    """Symmetry, identity and the triangle inequality for the L-family."""
    x, y, z = vectors
    for name in ("euclidean", "manhattan", "chebyshev"):
        metric = DISTANCE_METRICS[name]
        assert metric(x, y) == pytest.approx(metric(y, x), abs=1e-9)
        assert metric(x, x) == pytest.approx(0.0, abs=1e-9)
        assert metric(x, z) <= metric(x, y) + metric(y, z) + 1e-6
