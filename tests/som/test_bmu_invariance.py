"""The row-slice invariance contract of the einsum BMU kernel.

``bmu_indices`` promises that computing BMUs for a row slice of the
sample matrix gives *bitwise* the same answers as slicing the
full-matrix result: each row's answer depends on that row and the
weights only.  These tests pin it (against adversarial slicings and
near-tie weight layouts) and pin agreement with a brute-force
nearest-weight scan.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.som.bmu import bmu_indices


@st.composite
def matrices_and_weights(draw):
    samples = draw(st.integers(min_value=1, max_value=24))
    units = draw(st.integers(min_value=1, max_value=12))
    dim = draw(st.integers(min_value=1, max_value=8))
    finite = st.floats(min_value=-50.0, max_value=50.0, width=32)
    matrix = np.array(
        draw(
            st.lists(finite, min_size=samples * dim, max_size=samples * dim)
        )
    ).reshape(samples, dim)
    weights = np.array(
        draw(st.lists(finite, min_size=units * dim, max_size=units * dim))
    ).reshape(units, dim)
    return matrix, weights


class TestRowSliceInvariance:
    @given(matrices_and_weights(), st.integers(min_value=1, max_value=24))
    @settings(max_examples=60, deadline=None)
    def test_row_slices_equal_full_matrix_bitwise(self, data, step):
        """Concatenating per-slice BMUs == one full-matrix call, exactly."""
        matrix, weights = data
        full = bmu_indices(matrix, weights)
        parts = [
            bmu_indices(matrix[start : start + step], weights)
            for start in range(0, matrix.shape[0], step)
        ]
        np.testing.assert_array_equal(np.concatenate(parts), full)

    @given(matrices_and_weights())
    @settings(max_examples=60, deadline=None)
    def test_single_rows_equal_full_matrix(self, data):
        """The extreme split — one slice per sample — is still bitwise."""
        matrix, weights = data
        full = bmu_indices(matrix, weights)
        for row in range(matrix.shape[0]):
            assert bmu_indices(matrix[row : row + 1], weights)[0] == full[row]

    def test_near_tie_distances_stay_invariant(self):
        """Ulp-scale distance ties resolve identically under slicing.

        Weights that differ in the last few bits are exactly where a
        blocked BLAS product and a slice disagree; the einsum kernel
        must not.
        """
        rng = np.random.default_rng(7)
        base = rng.normal(size=(1, 6))
        weights = np.repeat(base, 16, axis=0)
        weights += rng.normal(scale=1e-15, size=weights.shape)
        matrix = np.repeat(base, 64, axis=0) + rng.normal(
            scale=1e-13, size=(64, 6)
        )
        full = bmu_indices(matrix, weights)
        for step in (1, 9, 22, 32):
            parts = [
                bmu_indices(matrix[start : start + step], weights)
                for start in range(0, 64, step)
            ]
            np.testing.assert_array_equal(np.concatenate(parts), full)

    @given(matrices_and_weights())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_nearest_weight(self, data):
        """The expansion-trick argmin is the true nearest-weight index."""
        matrix, weights = data
        got = bmu_indices(matrix, weights)
        for sample, index in zip(matrix, got):
            distances = np.sum((weights - sample) ** 2, axis=1)
            assert distances[index] == distances.min()

