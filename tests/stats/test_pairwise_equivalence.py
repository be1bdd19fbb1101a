"""Vectorized pairwise-distance fast paths vs the per-pair loop form.

``pairwise_distances`` promises that every named metric's fast path
reproduces the O(n^2) scalar loop it replaced.  The loop form lives in
``tests/reference_kernels.py`` and is driven with the exact same
metric callables from ``DISTANCE_METRICS``.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given

import repro.stats.distance as distance_module
from repro.exceptions import MeasurementError
from repro.stats.distance import (
    DISTANCE_METRICS,
    cosine_distance,
    pairwise_distances,
)

from tests.reference_kernels import reference_pairwise_distances

METRICS = sorted(DISTANCE_METRICS)


def _points(count: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Mixed-sign, mixed-scale values so abs/max/clip paths all matter.
    return rng.normal(size=(count, dim)) * rng.lognormal(size=(count, dim))


class TestFastPathsMatchLoopForm:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("count,dim", [(2, 1), (7, 3), (23, 17), (40, 9)])
    def test_fast_path_matches_reference_loop(self, metric, count, dim):
        points = _points(count, dim, seed=count * dim)
        fast = pairwise_distances(points, metric=metric)
        slow = reference_pairwise_distances(points, DISTANCE_METRICS[metric])
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)
        assert np.array_equal(fast, fast.T)
        assert np.all(np.diag(fast) == 0.0)

    @pytest.mark.parametrize("metric", ["manhattan", "chebyshev"])
    def test_blocked_path_matches_broadcast_path(self, metric, monkeypatch):
        points = _points(31, 8, seed=5)
        broadcast = pairwise_distances(points, metric=metric)
        # Shrink the broadcast budget so the same call takes the
        # row-blocked branch.
        monkeypatch.setattr(distance_module, "_BROADCAST_BUDGET_BYTES", 0)
        blocked = pairwise_distances(points, metric=metric)
        assert np.array_equal(broadcast, blocked)

    def test_callable_metric_still_uses_generic_loop(self):
        points = _points(6, 4, seed=8)

        def half_manhattan(a, b):
            return 0.5 * float(np.sum(np.abs(a - b)))

        result = pairwise_distances(points, metric=half_manhattan)
        expected = reference_pairwise_distances(points, half_manhattan)
        assert np.array_equal(result, expected)


class TestCosineSemanticsPreserved:
    def test_zero_vector_raises_like_scalar_metric(self):
        points = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])
        with pytest.raises(MeasurementError, match="zero vector"):
            pairwise_distances(points, metric="cosine")

    def test_similarity_clipped_to_unit_interval(self):
        # Parallel and anti-parallel vectors graze the clip boundary.
        points = np.array([[1.0, 1.0], [2.0, 2.0], [-3.0, -3.0]])
        result = pairwise_distances(points, metric="cosine")
        assert result[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert result[0, 2] == pytest.approx(2.0, abs=1e-15)
        assert np.all(result >= 0.0)
        assert np.all(result <= 2.0)


def _exact_cosine_distance(a, b) -> float:
    """``1 - cos`` in 80-digit decimal arithmetic, rounded once."""
    with localcontext() as context:
        context.prec = 80
        x = [Decimal(float(v)) for v in a]
        y = [Decimal(float(v)) for v in b]
        dot = sum(p * q for p, q in zip(x, y))
        norms = sum(p * p for p in x).sqrt() * sum(q * q for q in y).sqrt()
        return max(0.0, float(1 - dot / norms))


_coordinates = st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) > 1e-100)
_point_sets = st.integers(1, 4).flatmap(
    lambda dim: st.lists(
        st.lists(_coordinates, min_size=dim, max_size=dim),
        min_size=2,
        max_size=5,
    )
)


@given(points=_point_sets)
@example(points=[[1.0, 0.0], [1.0, 1e-9], [1.0, 2e-9]])
def test_cosine_distance_stays_accurate_for_near_parallel_rows(points):
    """``1 - cos`` cancels for near-parallel rows; the distance must not."""
    array = np.asarray(points, dtype=float)
    assume(np.all(np.linalg.norm(array, axis=1) > 0.0))
    matrix = pairwise_distances(array, metric="cosine")
    for i in range(len(array)):
        for j in range(i + 1, len(array)):
            exact = _exact_cosine_distance(array[i], array[j])
            bound = 1e-7 * exact + 1e-14 * np.sqrt(exact) + 1e-30
            assert abs(matrix[i, j] - exact) <= bound
            assert abs(cosine_distance(array[i], array[j]) - exact) <= bound
