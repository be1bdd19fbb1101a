"""Bitwise equivalence of the SOM training paths vs their reference loops.

The vectorized ``_fit_sequential`` (pre-drawn RNG indices, precomputed
decay schedules, preallocated buffers, inlined Gaussian kernel)
promises weights **bitwise identical** to the pre-vectorization scalar
implementation kept in ``tests/reference_kernels.py``.  These tests
pin that promise across map shapes, topologies, kernels, decay
families and data dimensions — including the SAR-A production
configuration the golden fixtures exercise end to end.  The exact
batch fit (search, ``exact_epoch_terms``, ``apply_epoch_terms``) is
pinned the same way against the in-line batch epoch loop.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.som.decay import (
    ExponentialDecay,
    InverseTimeDecay,
    LinearDecay,
    resolve_decay,
)
from repro.som.grid import Grid
from repro.som.neighborhood import (
    BubbleNeighborhood,
    GaussianNeighborhood,
    NeighborhoodKernel,
)
from repro.som.som import SOMConfig, SelfOrganizingMap

from tests.reference_kernels import (
    reference_batch_weights,
    reference_sequential_weights,
)


def _data(shape: tuple[int, int], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * 3.0 + 1.0


CONFIGS = [
    # The SAR-A production configuration (8x8, pca, gaussian,
    # exponential decay) at the prepared-matrix dimensionality.
    (SOMConfig(steps_per_sample=100), (13, 216)),
    (SOMConfig(steps_per_sample=200), (13, 14)),
    (
        SOMConfig(
            rows=5,
            columns=3,
            topology="hexagonal",
            initialization="random",
            steps_per_sample=40,
            seed=3,
        ),
        (11, 9),
    ),
    (
        SOMConfig(
            rows=4,
            columns=4,
            neighborhood="bubble",
            decay="linear",
            steps_per_sample=30,
            seed=11,
        ),
        (9, 7),
    ),
    (
        SOMConfig(rows=6, columns=6, decay="inverse", steps_per_sample=25, seed=5),
        (13, 5),
    ),
    (
        SOMConfig(
            rows=3,
            columns=3,
            learning_rate=(0.9, 0.1),
            radius=(2.5, 0.4),
            steps_per_sample=60,
            seed=99,
        ),
        (7, 4),
    ),
]


class TestSequentialBitwiseEquivalence:
    @pytest.mark.parametrize("config,shape", CONFIGS)
    def test_weights_bitwise_equal_scalar_reference(self, config, shape):
        data = _data(shape, seed=config.seed + shape[1])
        reference = reference_sequential_weights(config, data)
        vectorized = SelfOrganizingMap(config).fit(data).weights
        assert np.array_equal(reference, vectorized)

    def test_quality_history_unaffected_by_vectorization(self):
        config = SOMConfig(rows=4, columns=4, steps_per_sample=50, seed=2)
        data = _data((8, 6), seed=0)
        first = SelfOrganizingMap(config).fit(data, track_quality_every=13)
        second = SelfOrganizingMap(config).fit(data, track_quality_every=13)
        assert first.training_history == second.training_history
        assert np.array_equal(first.weights, second.weights)

    def test_custom_kernel_without_out_parameter_still_fits(self):
        class NoOutKernel(NeighborhoodKernel):
            def __call__(self, squared_distances, sigma):  # no out=
                return np.exp(
                    -np.asarray(squared_distances, dtype=float)
                    / (2.0 * sigma * sigma)
                )

        config = SOMConfig(rows=3, columns=3, steps_per_sample=20, seed=1)
        data = _data((6, 4), seed=4)
        som = SelfOrganizingMap(config)
        som._kernel = NoOutKernel()
        som.fit(data)
        gaussian = SelfOrganizingMap(config).fit(data)
        # A handwritten Gaussian without out= lands on the generic
        # path yet trains to the exact same weights.
        assert np.array_equal(som.weights, gaussian.weights)


class WideGaussian(GaussianNeighborhood):
    """A user-defined kernel: the paper's Gaussian at 1.5x the radius."""

    def __call__(self, squared_distances, sigma, out=None):
        return super().__call__(squared_distances, 1.5 * sigma, out=out)


class TestBatchBitwiseEquivalence:
    @given(
        samples=st.integers(min_value=2, max_value=20),
        dim=st.integers(min_value=2, max_value=8),
        rows=st.integers(min_value=2, max_value=6),
        columns=st.integers(min_value=2, max_value=6),
        topology=st.sampled_from(["rectangular", "hexagonal"]),
        neighborhood=st.sampled_from(["gaussian", "bubble", "subclass"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_weights_bitwise_equal_inline_epoch(
        self, samples, dim, rows, columns, topology, neighborhood, seed
    ):
        config = SOMConfig(
            rows=rows,
            columns=columns,
            topology=topology,
            neighborhood="gaussian" if neighborhood == "subclass" else neighborhood,
            seed=seed,
        )
        data = _data((samples, dim), seed=seed)
        kernel = WideGaussian() if neighborhood == "subclass" else None
        som = SelfOrganizingMap(config)
        if kernel is not None:
            som._kernel = kernel
        trained = som.fit(data, mode="batch").weights
        reference = reference_batch_weights(config, data, kernel=kernel)
        assert np.array_equal(trained, reference)


class TestBatchFancyIndexEquivalence:
    def test_batch_weights_match_per_row_stack(self):
        config = SOMConfig(rows=4, columns=5, seed=6)
        data = _data((10, 8), seed=9)
        som = SelfOrganizingMap(config).fit(data, mode="batch")
        # Recompute one batch epoch the pre-vectorization way and
        # compare the influence matrix construction directly.
        grid = som.grid
        bmus = som._bmus_of(data)
        stacked = np.stack(
            [grid.squared_map_distances_from(int(b)) for b in bmus]
        )
        fancy = grid.squared_distance_table[bmus]
        assert np.array_equal(stacked, fancy)


class TestDecayValuesBitwise:
    @pytest.mark.parametrize(
        "schedule",
        [
            LinearDecay(0.5, 0.01),
            ExponentialDecay(0.5, 0.01),
            InverseTimeDecay(4.0, 0.6),
            resolve_decay("exponential", 3.7, 0.6),
        ],
    )
    def test_values_match_scalar_calls(self, schedule):
        progress = np.arange(6500) / 6499
        vectorized = schedule.values(progress)
        scalar = np.array([schedule(float(p)) for p in progress])
        assert np.array_equal(vectorized, scalar)

    def test_values_rejects_out_of_range(self):
        from repro.exceptions import SOMError

        with pytest.raises(SOMError):
            LinearDecay(1.0, 0.5).values(np.array([0.0, 1.5]))

    def test_base_fallback_used_by_custom_schedules(self):
        from repro.som.decay import DecaySchedule

        class Quadratic(DecaySchedule):
            def __call__(self, progress):
                p = self._check_progress(progress)
                return self._start - (self._start - self._end) * p * p

        schedule = Quadratic(0.8, 0.2)
        progress = np.linspace(0.0, 1.0, 101)
        assert np.array_equal(
            schedule.values(progress),
            np.array([schedule(float(p)) for p in progress]),
        )


class TestNeighborhoodOutBitwise:
    @pytest.mark.parametrize(
        "kernel", [GaussianNeighborhood(), BubbleNeighborhood()]
    )
    @pytest.mark.parametrize("sigma", [0.37, 1.0, 4.2])
    def test_out_path_matches_allocating_path(self, kernel, sigma):
        distances = Grid(6, 7).squared_map_distances_from(17)
        allocated = kernel(distances, sigma)
        buffer = np.empty(distances.size)
        returned = kernel(distances, sigma, out=buffer)
        assert returned is buffer
        assert np.array_equal(allocated, buffer)


class TestGridDistanceTable:
    def test_table_is_read_only_and_rows_view_it(self):
        grid = Grid(5, 4)
        table = grid.squared_distance_table
        assert table.shape == (20, 20)
        assert not table.flags.writeable
        row = grid.squared_map_distances_from(7)
        assert not row.flags.writeable
        assert np.shares_memory(row, table)
        with pytest.raises(ValueError):
            row[0] = 1.0
