"""Unit tests for the neighborhood kernels h_ci."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SOMError
from repro.som.grid import Grid
from repro.som.neighborhood import (
    BubbleNeighborhood,
    GaussianNeighborhood,
    resolve_neighborhood,
)


class TestGaussianNeighborhood:
    def test_bmu_weight_is_one(self):
        kernel = GaussianNeighborhood()
        assert kernel(np.array([0.0]), sigma=1.0)[0] == pytest.approx(1.0)

    def test_matches_paper_formula(self):
        # h = exp(-d^2 / (2 sigma^2)) from Section III-A.
        kernel = GaussianNeighborhood()
        d_sq, sigma = 4.0, 1.5
        expected = np.exp(-d_sq / (2 * sigma**2))
        assert kernel(np.array([d_sq]), sigma)[0] == pytest.approx(expected)

    def test_monotone_decreasing_in_distance(self):
        kernel = GaussianNeighborhood()
        weights = kernel(np.array([0.0, 1.0, 4.0, 9.0]), sigma=1.0)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_larger_sigma_widens_neighborhood(self):
        kernel = GaussianNeighborhood()
        narrow = kernel(np.array([4.0]), sigma=0.5)[0]
        wide = kernel(np.array([4.0]), sigma=3.0)[0]
        assert wide > narrow

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(SOMError, match="positive"):
            GaussianNeighborhood()(np.array([1.0]), sigma=0.0)


class TestBubbleNeighborhood:
    def test_hard_cutoff(self):
        kernel = BubbleNeighborhood()
        weights = kernel(np.array([0.0, 1.0, 4.0, 9.0]), sigma=2.0)
        assert weights.tolist() == [1.0, 1.0, 1.0, 0.0]

    def test_boundary_is_inside(self):
        kernel = BubbleNeighborhood()
        assert kernel(np.array([4.0]), sigma=2.0)[0] == 1.0


class TestResolve:
    def test_by_name(self):
        assert isinstance(resolve_neighborhood("gaussian"), GaussianNeighborhood)
        assert isinstance(resolve_neighborhood("bubble"), BubbleNeighborhood)

    def test_instance_passthrough(self):
        kernel = GaussianNeighborhood()
        assert resolve_neighborhood(kernel) is kernel

    def test_unknown_name(self):
        with pytest.raises(SOMError, match="unknown neighborhood kernel"):
            resolve_neighborhood("mexican-hat")


class TestElementwise:
    @pytest.mark.parametrize("kernel", [GaussianNeighborhood(), BubbleNeighborhood()])
    @pytest.mark.parametrize(
        "shape", [(3, 3, "rectangular"), (13, 13, "rectangular"), (7, 9, "hexagonal")]
    )
    def test_kernel_of_the_table_gathers_bitwise(self, kernel, shape):
        """Batch training evaluates the kernel on the (U, U) table and
        gathers rows; that must be the kernel of the gathered rows."""
        rows, columns, topology = shape
        table = Grid(rows, columns, topology=topology).squared_distance_table
        bmus = np.random.default_rng(rows).integers(0, table.shape[0], 257)
        for sigma in np.geomspace(0.05, 2.0 * max(rows, columns), 40):
            gathered = kernel(table, sigma)[bmus]
            direct = kernel(table[bmus], sigma)
            assert gathered.tobytes() == direct.tobytes()
