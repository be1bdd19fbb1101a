"""Unit tests for HGM/HAM/HHM and the Hierarchy tree."""

from __future__ import annotations

import warnings

import pytest

from repro.core.hierarchical import (
    Hierarchy,
    cluster_representatives,
    hierarchical_arithmetic_mean,
    hierarchical_geometric_mean,
    hierarchical_harmonic_mean,
    hierarchical_mean,
    hierarchical_mean_many,
)
from repro.core.means import arithmetic_mean, geometric_mean, harmonic_mean
from repro.core.partition import Partition
from repro.exceptions import MeasurementError, PartitionError

SCORES = {"a": 2.0, "b": 8.0, "c": 4.0}


class TestHierarchicalGeometricMean:
    def test_worked_example(self):
        # Inner GM of {a, b} is 4; outer GM of (4, 4) is 4.
        partition = Partition([["a", "b"], ["c"]])
        assert hierarchical_geometric_mean(SCORES, partition) == pytest.approx(4.0)

    def test_section_v_b1_four_cluster_example(self, speedups_a):
        """The 4-cluster machine-A partition described in the text gives
        the published Table IV row (2.89)."""
        partition = Partition(
            [
                ["jvm98.213.javac"],
                ["jvm98.202.jess", "jvm98.227.mtrt"],
                ["DaCapo.chart", "DaCapo.xalan"],
                [
                    "jvm98.201.compress",
                    "jvm98.222.mpegaudio",
                    "SciMark2.FFT",
                    "SciMark2.LU",
                    "SciMark2.MonteCarlo",
                    "SciMark2.SOR",
                    "SciMark2.Sparse",
                    "DaCapo.hsqldb",
                ],
            ]
        )
        assert hierarchical_geometric_mean(speedups_a, partition) == pytest.approx(
            2.89, abs=0.005
        )

    def test_degenerates_to_plain_gm_under_singletons(self, speedups_a):
        """Section II: one workload per cluster -> plain geometric mean."""
        partition = Partition.singletons(speedups_a)
        assert hierarchical_geometric_mean(speedups_a, partition) == pytest.approx(
            geometric_mean(list(speedups_a.values()))
        )

    def test_whole_partition_equals_plain_gm(self, speedups_a):
        """A single cluster also reduces to the plain GM (GM of one GM)."""
        partition = Partition.whole(speedups_a)
        assert hierarchical_geometric_mean(speedups_a, partition) == pytest.approx(
            geometric_mean(list(speedups_a.values()))
        )


class TestHierarchicalArithmeticMean:
    def test_worked_example(self):
        # Inner AMs: (2+8)/2 = 5 and 4; outer AM = 4.5.
        partition = Partition([["a", "b"], ["c"]])
        assert hierarchical_arithmetic_mean(SCORES, partition) == pytest.approx(4.5)

    def test_degenerates_to_plain_am(self):
        partition = Partition.singletons(SCORES)
        assert hierarchical_arithmetic_mean(SCORES, partition) == pytest.approx(
            arithmetic_mean(list(SCORES.values()))
        )


    def test_rejects_non_positive_scores(self):
        """HAM of {0, 1 | 2} used to come out 1.25; a zero speedup is
        rejected by every family, one score or a matrix of them."""
        scores = {"a": 0.0, "b": 1.0, "c": 2.0}
        partition = Partition([["a", "b"], ["c"]])
        with pytest.raises(MeasurementError, match="strictly positive"):
            hierarchical_arithmetic_mean(scores, partition)
        for mean in ("arithmetic", "geometric", "harmonic"):
            with pytest.raises(MeasurementError, match="strictly positive"):
                hierarchical_mean_many(
                    [[1.0, 1.0, 2.0], [0.0, 1.0, 2.0]],
                    ["a", "b", "c"],
                    partition,
                    mean=mean,
                )

class TestHierarchicalHarmonicMean:
    def test_worked_example(self):
        # Inner HMs: HM(2, 8) = 3.2 and 4; outer HM(3.2, 4) ~ 3.5556.
        partition = Partition([["a", "b"], ["c"]])
        assert hierarchical_harmonic_mean(SCORES, partition) == pytest.approx(
            2.0 / (1.0 / 3.2 + 1.0 / 4.0)
        )

    def test_degenerates_to_plain_hm(self):
        partition = Partition.singletons(SCORES)
        assert hierarchical_harmonic_mean(SCORES, partition) == pytest.approx(
            harmonic_mean(list(SCORES.values()))
        )

    def test_tiny_speedup_is_named_not_collapsed_to_zero(self):
        # It used to warn of an overflow, then report the inner mean's
        # 0.0 as the offending score.
        scores = {"a": 1e-320, "b": 1.0, "c": 2.0}
        partition = Partition([["a", "b"], ["c"]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeasurementError, match="1e-320"):
                hierarchical_harmonic_mean(scores, partition)
            with pytest.raises(MeasurementError, match="1e-320"):
                hierarchical_mean_many(
                    [[2.0, 8.0, 4.0], list(scores.values())],
                    list(scores),
                    partition,
                    mean="harmonic",
                )


class TestHierarchicalMeanGeneric:
    def test_mean_family_by_name(self):
        partition = Partition([["a", "b"], ["c"]])
        assert hierarchical_mean(SCORES, partition, mean="arithmetic") == (
            pytest.approx(4.5)
        )

    def test_mean_family_by_callable(self):
        partition = Partition([["a", "b"], ["c"]])
        result = hierarchical_mean(SCORES, partition, mean=geometric_mean)
        assert result == pytest.approx(4.0)

    def test_unknown_mean_family(self):
        with pytest.raises(MeasurementError, match="unknown mean family"):
            hierarchical_mean(SCORES, Partition.whole(SCORES), mean="median")

    def test_missing_score_for_partition_label(self):
        partition = Partition([["a", "b"], ["c"], ["d"]])
        with pytest.raises(PartitionError, match="no score for"):
            hierarchical_mean(SCORES, partition)

    def test_extra_score_outside_partition(self):
        partition = Partition([["a", "b"]])
        with pytest.raises(PartitionError, match="outside the partition"):
            hierarchical_mean(SCORES, partition)

    def test_cluster_representatives_values(self):
        partition = Partition([["a", "b"], ["c"]])
        reps = cluster_representatives(SCORES, partition, mean="geometric")
        assert reps[("a", "b")] == pytest.approx(4.0)
        assert reps[("c",)] == pytest.approx(4.0)

    def test_non_positive_score_rejected_for_gm(self):
        partition = Partition.whole({"a": 1.0, "b": -1.0})
        with pytest.raises(MeasurementError, match="strictly positive"):
            hierarchical_geometric_mean({"a": 1.0, "b": -1.0}, partition)


class TestHierarchy:
    def test_two_level_tree_matches_partition_mean(self, speedups_a):
        partition = Partition(
            [["SciMark2.FFT", "SciMark2.LU"], ["jvm98.213.javac"]]
        )
        scores = {k: speedups_a[k] for k in partition.labels}
        tree = Hierarchy.from_partition(partition)
        assert tree.score(scores) == pytest.approx(
            hierarchical_geometric_mean(scores, partition)
        )

    def test_three_level_tree(self):
        # ((a, b), c) nested under the root together with d.
        inner = Hierarchy(children=("a", "b"))
        middle = Hierarchy(children=(inner, "c"))
        root = Hierarchy(children=(middle, "d"))
        scores = {"a": 2.0, "b": 8.0, "c": 4.0, "d": 16.0}
        # bottom-up GM: GM(2,8)=4; GM(4,4)=4; GM(4,16)=8.
        assert root.score(scores) == pytest.approx(8.0)
        assert root.depth == 3

    def test_leaves_in_traversal_order(self):
        tree = Hierarchy(children=(Hierarchy(children=("x", "y")), "z"))
        assert tree.leaves() == ("x", "y", "z")

    def test_rejects_duplicate_leaves(self):
        with pytest.raises(PartitionError, match="more than one leaf"):
            Hierarchy(children=("a", Hierarchy(children=("a", "b"))))

    def test_rejects_empty_node(self):
        with pytest.raises(PartitionError, match="no children"):
            Hierarchy(children=())

    def test_missing_score(self):
        tree = Hierarchy(children=("a", "b"))
        with pytest.raises(PartitionError, match="no score for"):
            tree.score({"a": 1.0})

    def test_singleton_blocks_become_plain_leaves(self):
        tree = Hierarchy.from_partition(Partition([["a"], ["b", "c"]]))
        assert tree.depth == 2
        assert set(tree.leaves()) == {"a", "b", "c"}
