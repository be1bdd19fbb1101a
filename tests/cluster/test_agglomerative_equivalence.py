"""Cached nearest-neighbour search vs the full-matrix agglomerative loop.

``AgglomerativeClustering.fit_distance_matrix`` keeps each row's
nearest column cached instead of taking a flat ``argmin`` over the
whole working matrix on every merge.  It promises the very same merge
sequence — ids, distance bits and sizes — as the masked-argmin loop it
replaced, which lives on in ``tests/reference_kernels.py``.  SOM map
positions are integer lattice points, so distance ties are the norm
and the first-row, first-column tie rule decides the tree.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cluster.agglomerative import AgglomerativeClustering
from repro.cluster.linkage import LINKAGES
from repro.stats.distance import pairwise_distances

from tests.reference_kernels import reference_agglomerative_merges

LINKAGE_NAMES = sorted(LINKAGES)


def _merge_bits(merges):
    """Merges with distances as hex strings, so -0.0 != 0.0."""
    return [(m.first, m.second, m.distance.hex(), m.size) for m in merges]


def _assert_same_merges(distances: np.ndarray, linkage: str) -> None:
    cached = AgglomerativeClustering(linkage=linkage).fit_distance_matrix(
        distances
    )
    reference = reference_agglomerative_merges(distances, linkage)
    assert cached.merges == reference
    assert _merge_bits(cached.merges) == _merge_bits(reference)


@st.composite
def lattice_points(draw):
    """Integer points on a small lattice: many ties, many duplicates."""
    count = draw(st.integers(min_value=2, max_value=40))
    side = draw(st.integers(min_value=1, max_value=5))
    dim = draw(st.integers(min_value=1, max_value=2))
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=side - 1),
            min_size=count * dim,
            max_size=count * dim,
        )
    )
    return np.array(values, dtype=float).reshape(count, dim)


@st.composite
def gaussian_clouds(draw):
    count = draw(st.integers(min_value=2, max_value=30))
    dim = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return np.random.default_rng(seed).normal(size=(count, dim))


@st.composite
def identical_points(draw):
    count = draw(st.integers(min_value=2, max_value=25))
    value = draw(st.floats(min_value=-10.0, max_value=10.0))
    return np.full((count, 2), value)


point_sets = st.one_of(lattice_points(), gaussian_clouds(), identical_points())


@pytest.mark.parametrize("linkage", LINKAGE_NAMES)
@given(points=point_sets)
@settings(max_examples=60, deadline=None)
def test_cached_search_matches_full_matrix_loop(linkage, points):
    _assert_same_merges(pairwise_distances(points), linkage)


@pytest.mark.parametrize("linkage", LINKAGE_NAMES)
def test_two_points(linkage):
    _assert_same_merges(
        pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]])), linkage
    )


@pytest.mark.parametrize("linkage", LINKAGE_NAMES)
@given(
    points=lattice_points(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_near_symmetric_matrices_follow_the_row_major_search(
    linkage, points, seed
):
    # The fit accepts matrices symmetric to 1e-9.  With d[i, j] and
    # d[j, i] a few ulps apart, the minimum can sit below the diagonal,
    # so the merged slot's row need not have cached either merged
    # column and must be rescanned on its own.
    distances = pairwise_distances(points)
    jitter = np.random.default_rng(seed).integers(-1, 2, size=distances.shape)
    np.fill_diagonal(jitter, 0)
    _assert_same_merges(np.abs(distances + jitter * 1e-12), linkage)


def test_merged_column_wins_a_tie_left_of_the_cached_column():
    # Merging points 1 and 3 gives row 0 a distance 2 to slot 1 that
    # ties its cached nearest neighbour, slot 2.  The flat argmin then
    # takes column 1 first, so slot 1 must replace the cached column.
    points = np.array([[0.0], [-3.0], [2.0], [-2.0]])
    _assert_same_merges(pairwise_distances(points), "single")
    dendrogram = AgglomerativeClustering(linkage="single").fit(points)
    assert [(m.first, m.second) for m in dendrogram.merges] == [
        (1, 3),
        (0, 4),
        (5, 2),
    ]


@pytest.mark.parametrize("linkage", LINKAGE_NAMES)
def test_three_hundred_points_on_som_lattice(linkage):
    # 300 points on 169 cells: duplicate stacks merge at distance 0
    # first, then whole runs of equal-distance cells, so one merge
    # often leaves several rows with a stale cached column.
    rng = np.random.default_rng(13)
    points = rng.integers(0, 13, size=(300, 2)).astype(float)
    _assert_same_merges(pairwise_distances(points), linkage)
