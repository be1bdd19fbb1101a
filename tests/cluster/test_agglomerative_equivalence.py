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
from repro.cluster.linkage import LINKAGES, CompleteLinkage
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


# -- the co-located collapse ------------------------------------------------
#
# With more points than distinct positions, the fit merges each group of
# co-located points in bulk and runs the loop on the distinct positions
# only.  These cases check that collapse against the same full-matrix
# reference, and that it steps aside wherever it could not match it.


def _collapses(distances: np.ndarray, linkage) -> bool:
    return (
        AgglomerativeClustering(linkage=linkage)._collapse_colocated(distances)
        is not None
    )


@pytest.mark.parametrize("linkage", LINKAGE_NAMES)
def test_thousand_points_on_som_lattice_collapse_to_their_cells(linkage):
    # The big-suite shape: 1000 workloads on a 13x13 map.
    rng = np.random.default_rng(26)
    points = rng.integers(0, 13, size=(1000, 2)).astype(float)
    cells = len(np.unique(points, axis=0))
    distances = pairwise_distances(points)
    working, _, sizes, merges = AgglomerativeClustering(
        linkage=linkage
    )._collapse_colocated(distances)
    assert working.shape == (cells, cells)
    assert len(merges) == 1000 - cells and sizes.sum() == 1000
    _assert_same_merges(distances, linkage)


@st.composite
def duplicate_stacks(draw):
    """Gaussian points, each repeated as exact float copies, shuffled."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(draw(st.integers(1, 12)), draw(st.integers(1, 4))))
    copies = draw(
        st.lists(st.integers(1, 6), min_size=len(base), max_size=len(base))
    )
    points = np.repeat(base, copies, axis=0)
    return points[rng.permutation(len(points))]


@pytest.mark.parametrize("linkage", LINKAGE_NAMES)
@given(points=duplicate_stacks())
@settings(max_examples=40, deadline=None)
def test_gaussian_duplicate_stacks(linkage, points):
    _assert_same_merges(pairwise_distances(points), linkage)


@pytest.mark.parametrize("linkage", LINKAGE_NAMES)
@given(points=lattice_points())
@settings(max_examples=40, deadline=None)
def test_lattice_at_underflow_scale(linkage, points):
    # Coordinates of ~1e-160: Ward and centroid square distances into
    # the subnormals or to zero, so a fold can make two distinct cells
    # look co-located.  The loop would take that zero among the zero
    # merges; the collapse must step aside rather than reorder.
    _assert_same_merges(pairwise_distances(points * 1e-160), linkage)


def test_underflowing_ward_fold_declines_the_collapse():
    points = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [5.0]]) * 1e-162
    distances = pairwise_distances(points)
    assert _collapses(distances, "complete")
    assert not _collapses(distances, "ward")
    _assert_same_merges(distances, "ward")


@pytest.mark.parametrize("linkage", LINKAGE_NAMES)
@given(
    points=lattice_points(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_near_symmetric_matrix_with_duplicate_rows(linkage, points, seed):
    # Symmetric only to within ulps, so the fit takes the `allclose`
    # check.  Co-located rows stay bitwise equal, but a co-located
    # point's column need not match its leader's: the loop folds rows,
    # so the collapse must leave such a matrix to it.
    distances = pairwise_distances(points)
    rng = np.random.default_rng(seed)
    jitter = rng.integers(-1, 2, size=distances.shape) * 1e-12
    distances = np.where(distances > 0.0, distances + jitter, 0.0)
    leader = (distances == 0.0).argmax(axis=1)
    distances = distances[leader]
    np.fill_diagonal(distances, 0.0)
    _assert_same_merges(distances, linkage)


def test_signed_zero_diagonal_declines_the_collapse():
    # Ward maps a -0.0 distance to +0.0 once a group has merged, so the
    # loop's later zero merges read +0.0 where the input holds -0.0.
    distances = pairwise_distances(np.array([[0.0], [0.0], [0.0], [2.0]]))
    distances[:3, :3] = -0.0
    for linkage in LINKAGE_NAMES:
        assert not _collapses(distances, linkage)
        _assert_same_merges(distances, linkage)


class _SizePenaltyLinkage(CompleteLinkage):
    """Complete linkage plus a size penalty: zeros do not stay zero."""

    def update(self, d_pk, d_qk, d_pq, size_p, size_q, sizes_k):
        return np.maximum(d_pk, d_qk) + 0.5 * (size_p + size_q)


def test_custom_linkage_subclass_takes_the_plain_loop():
    points = np.array([[0.0], [0.0], [0.0], [0.0], [3.0], [3.0], [7.0]])
    distances = pairwise_distances(points)
    assert _collapses(distances, "complete")
    assert not _collapses(distances, _SizePenaltyLinkage())
    _assert_same_merges(distances, _SizePenaltyLinkage())


@pytest.mark.parametrize("linkage", LINKAGE_NAMES)
def test_zero_distance_between_distinct_rows_takes_the_plain_loop(linkage):
    # Not a metric: points 0 and 1 are at distance 0 but lie at
    # different distances from point 2, so 1 is no copy of 0.
    distances = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    assert not _collapses(distances, linkage)
    _assert_same_merges(distances, linkage)
