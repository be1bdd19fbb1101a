"""Unit tests for the Dendrogram structure and its cuts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.agglomerative import AgglomerativeClustering
from repro.cluster.dendrogram import Dendrogram, Merge
from repro.core.partition import Partition
from repro.exceptions import ClusteringError

LABELS = ("a", "b", "c", "d")
# Merge order: {a, b} at 1.0; {c, d} at 2.0; all at 5.0.
MERGES = (
    Merge(first=0, second=1, distance=1.0, size=2),
    Merge(first=2, second=3, distance=2.0, size=2),
    Merge(first=4, second=5, distance=5.0, size=4),
)


@pytest.fixture()
def dendrogram():
    return Dendrogram(LABELS, MERGES)


class TestMergeValidation:
    def test_rejects_self_merge(self):
        with pytest.raises(ClusteringError, match="itself"):
            Merge(first=1, second=1, distance=0.5, size=2)

    def test_rejects_negative_distance(self):
        with pytest.raises(ClusteringError, match="non-negative"):
            Merge(first=0, second=1, distance=-0.1, size=2)

    def test_rejects_nan_distance(self):
        with pytest.raises(ClusteringError, match="finite"):
            Merge(first=0, second=1, distance=float("nan"), size=2)

    def test_rejects_tiny_size(self):
        with pytest.raises(ClusteringError, match="at least 2"):
            Merge(first=0, second=1, distance=0.5, size=1)


class TestConstruction:
    def test_accessors(self, dendrogram):
        assert dendrogram.num_leaves == 4
        assert dendrogram.labels == LABELS
        assert dendrogram.is_monotone

    def test_members_of_internal_cluster(self, dendrogram):
        assert dendrogram.members_of(4) == ("a", "b")
        assert dendrogram.members_of(6) == ("a", "b", "c", "d")

    def test_members_of_leaf(self, dendrogram):
        assert dendrogram.members_of(2) == ("c",)

    def test_rejects_wrong_merge_count(self):
        with pytest.raises(ClusteringError, match="merges"):
            Dendrogram(LABELS, MERGES[:2])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ClusteringError, match="duplicate"):
            Dendrogram(("a", "a"), (Merge(0, 1, 1.0, 2),))

    def test_rejects_forward_reference(self):
        bad = (Merge(first=0, second=9, distance=1.0, size=2),)
        with pytest.raises(ClusteringError, match="unknown cluster"):
            Dendrogram(("a", "b"), bad)

    def test_rejects_reusing_merged_cluster(self):
        bad = (
            Merge(0, 1, 1.0, 2),
            Merge(0, 2, 2.0, 2),  # leaf 0 already absorbed
        )
        with pytest.raises(ClusteringError, match="merged twice"):
            Dendrogram(("a", "b", "c"), bad)

    def test_rejects_wrong_size_claim(self):
        bad = (Merge(0, 1, 1.0, 3),)
        with pytest.raises(ClusteringError, match="size"):
            Dendrogram(("a", "b"), bad)

    def test_unknown_cluster_id_query(self, dendrogram):
        with pytest.raises(ClusteringError, match="unknown cluster id"):
            dendrogram.members_of(99)


class TestCutToK:
    def test_every_k(self, dendrogram):
        assert dendrogram.cut_to_k(4) == Partition.singletons(LABELS)
        assert dendrogram.cut_to_k(3) == Partition([["a", "b"], ["c"], ["d"]])
        assert dendrogram.cut_to_k(2) == Partition([["a", "b"], ["c", "d"]])
        assert dendrogram.cut_to_k(1) == Partition.whole(LABELS)

    def test_out_of_range(self, dendrogram):
        with pytest.raises(ClusteringError, match="1..4"):
            dendrogram.cut_to_k(5)
        with pytest.raises(ClusteringError, match="1..4"):
            dendrogram.cut_to_k(0)

    def test_partitions_iterator_is_refinement_chain(self, dendrogram):
        partitions = dict(dendrogram.partitions())
        assert sorted(partitions) == [1, 2, 3, 4]
        for k in (4, 3, 2):
            assert partitions[k].is_refinement_of(partitions[k - 1])


class TestCutAtDistance:
    def test_below_first_merge(self, dendrogram):
        assert dendrogram.cut_at_distance(0.5) == Partition.singletons(LABELS)

    def test_between_merges(self, dendrogram):
        assert dendrogram.cut_at_distance(1.5) == Partition(
            [["a", "b"], ["c"], ["d"]]
        )

    def test_exact_merge_distance_is_inclusive(self, dendrogram):
        assert dendrogram.cut_at_distance(2.0) == Partition(
            [["a", "b"], ["c", "d"]]
        )

    def test_above_root(self, dendrogram):
        assert dendrogram.cut_at_distance(100.0) == Partition.whole(LABELS)

    def test_rejects_negative(self, dendrogram):
        with pytest.raises(ClusteringError, match=">= 0"):
            dendrogram.cut_at_distance(-1.0)


class TestMergingDistanceFor:
    def test_known_thresholds(self, dendrogram):
        assert dendrogram.merging_distance_for(4) == 0.0
        assert dendrogram.merging_distance_for(3) == 1.0
        assert dendrogram.merging_distance_for(2) == 2.0
        assert dendrogram.merging_distance_for(1) == 5.0

    def test_cut_at_that_distance_recovers_k(self, dendrogram):
        for k in (1, 2, 3, 4):
            distance = dendrogram.merging_distance_for(k)
            assert dendrogram.cut_at_distance(distance).num_blocks == k


class TestLeafOrderAndCophenetic:
    def test_leaf_order_keeps_clusters_contiguous(self, dendrogram):
        order = dendrogram.leaf_order()
        assert set(order) == set(LABELS)
        ab = {order.index("a"), order.index("b")}
        assert max(ab) - min(ab) == 1

    def test_single_leaf_order(self):
        single = Dendrogram(("x",), ())
        assert single.leaf_order() == ("x",)

    def test_leaf_order_is_first_child_first(self, dendrogram):
        assert dendrogram.leaf_order() == ("a", "b", "c", "d")

    def test_leaf_order_of_a_1200_level_chain(self):
        # Growing gaps make single linkage absorb one point per merge,
        # so the tree is as deep as it has leaves.
        points = (np.arange(1200.0) ** 1.5)[:, None]
        chain = AgglomerativeClustering(linkage="single").fit(points)
        assert chain.merges[-1].size == 1200
        assert chain.leaf_order() == chain.labels

    def test_cophenetic_matrix_values(self, dendrogram):
        matrix = dendrogram.cophenetic_matrix()
        assert matrix[0, 1] == pytest.approx(1.0)  # a-b merge height
        assert matrix[2, 3] == pytest.approx(2.0)  # c-d merge height
        assert matrix[0, 2] == pytest.approx(5.0)  # across the root
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_monotonicity_detection(self):
        inverted = (
            Merge(0, 1, 3.0, 2),
            Merge(2, 3, 1.0, 2),  # later merge at a smaller distance
            Merge(4, 5, 5.0, 4),
        )
        assert not Dendrogram(LABELS, inverted).is_monotone
