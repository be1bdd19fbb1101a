"""Property-based tests for agglomerative clustering invariants."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import example, given, settings

from repro.cluster.agglomerative import AgglomerativeClustering
from repro.stats.distance import pairwise_distances


@st.composite
def point_clouds(draw):
    count = draw(st.integers(min_value=2, max_value=12))
    dim = draw(st.integers(min_value=1, max_value=4))
    values = draw(
        st.lists(
            st.floats(min_value=-50.0, max_value=50.0),
            min_size=count * dim,
            max_size=count * dim,
        )
    )
    return np.array(values).reshape(count, dim)


@given(point_clouds())
@settings(max_examples=40, deadline=None)
def test_complete_linkage_merge_distances_are_monotone(points):
    """Complete linkage can never produce dendrogram inversions."""
    dendrogram = AgglomerativeClustering(linkage="complete").fit(points)
    assert dendrogram.is_monotone


@given(point_clouds())
@settings(max_examples=40, deadline=None)
def test_single_linkage_merge_distances_are_monotone(points):
    dendrogram = AgglomerativeClustering(linkage="single").fit(points)
    assert dendrogram.is_monotone


@given(point_clouds())
@settings(max_examples=40, deadline=None)
def test_cuts_form_a_refinement_chain(points):
    """cut_to_k(k+1) always refines cut_to_k(k) — the property the
    partition-inference solver relies on."""
    dendrogram = AgglomerativeClustering().fit(points)
    previous = None
    for k in range(dendrogram.num_leaves, 0, -1):
        current = dendrogram.cut_to_k(k)
        assert current.num_blocks == k
        if previous is not None:
            assert previous.is_refinement_of(current)
        previous = current


@given(point_clouds())
@settings(max_examples=40, deadline=None)
def test_complete_linkage_cophenetic_dominates_direct_distance(points):
    """Under complete linkage, the height at which two points' clusters
    merge is a max over cross-cluster pairs that includes the pair
    itself, so every cophenetic distance >= the direct distance."""
    distances = pairwise_distances(points)
    dendrogram = AgglomerativeClustering(linkage="complete").fit(points)
    cophenetic = dendrogram.cophenetic_matrix()
    n = points.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            assert cophenetic[i, j] >= distances[i, j] - 1e-9


@given(point_clouds())
@settings(max_examples=40, deadline=None)
def test_leaf_order_is_a_permutation(points):
    dendrogram = AgglomerativeClustering().fit(points)
    order = dendrogram.leaf_order()
    assert sorted(order) == sorted(dendrogram.labels)


@given(point_clouds(), st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
@example(points=np.array([[0.0], [7.83656442e-163], [0.0]]), factor=4.0)
@settings(max_examples=40, deadline=None)
def test_uniform_scaling_preserves_cluster_structure(points, factor):
    """Scaling all points by a constant scales merge distances but
    leaves every cut partition unchanged.  Powers of two keep the
    scaling exact in floating point, so even tie-breaks are preserved."""
    base = AgglomerativeClustering().fit(points)
    scaled = AgglomerativeClustering().fit(points * factor)
    for k in range(1, base.num_leaves + 1):
        assert base.cut_to_k(k) == scaled.cut_to_k(k)
    base_distances = [m.distance for m in base.merges]
    scaled_distances = [m.distance for m in scaled.merges]
    for b, s in zip(base_distances, scaled_distances):
        assert abs(s - factor * b) <= 1e-6 * max(1.0, abs(s))
