"""Dendrograms: the merge history of an agglomerative clustering.

A :class:`Dendrogram` records, bottom-up, which clusters merged at
which distance.  Cutting it — either at a merging distance (the
paper's Figures 4, 6 and 8 read clusters off horizontal cuts) or to a
target cluster count k (the rows of Tables IV-VI) — yields a
:class:`~repro.core.partition.Partition` ready to feed a hierarchical
mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.partition import Partition
from repro.exceptions import ClusteringError

__all__ = ["Merge", "Dendrogram", "to_linkage_matrix"]


@dataclass(frozen=True, slots=True)
class Merge:
    """One agglomeration step.

    Cluster ids follow the scipy convention: leaves are ``0..n-1`` in
    label order; the merge recorded at step ``t`` creates cluster
    ``n + t``.
    """

    first: int
    second: int
    distance: float
    size: int

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ClusteringError("Merge: a cluster cannot merge with itself")
        if not math.isfinite(self.distance) or self.distance < 0.0:
            raise ClusteringError(
                f"Merge: distance must be finite and non-negative, got {self.distance}"
            )
        if self.size < 2:
            raise ClusteringError("Merge: merged size must be at least 2")


class Dendrogram:
    """Full merge tree over labelled points.

    Parameters
    ----------
    labels:
        Point labels, in the leaf-id order the merges refer to.
    merges:
        ``n - 1`` merges, in the order they happened.
    """

    def __init__(self, labels: Sequence[str], merges: Sequence[Merge]) -> None:
        if not labels:
            raise ClusteringError("Dendrogram: no labels")
        if len(set(labels)) != len(labels):
            raise ClusteringError("Dendrogram: duplicate labels")
        if len(merges) != len(labels) - 1:
            raise ClusteringError(
                f"Dendrogram: {len(labels)} leaves need {len(labels) - 1} merges, "
                f"got {len(merges)}"
            )
        self._labels = tuple(labels)
        self._merges = tuple(merges)
        self._members = self._build_membership()

    def _build_membership(self) -> list[tuple[int, ...]]:
        """Leaf members of every cluster id, validating merge structure."""
        count = len(self._labels)
        members: list[tuple[int, ...]] = [(i,) for i in range(count)]
        absorbed: set[int] = set()
        for step, merge in enumerate(self._merges):
            new_id = count + step
            for child in (merge.first, merge.second):
                if not (0 <= child < new_id):
                    raise ClusteringError(
                        f"Dendrogram: merge {step} references unknown cluster {child}"
                    )
                if child in absorbed:
                    raise ClusteringError(
                        f"Dendrogram: cluster {child} is merged twice"
                    )
                absorbed.add(child)
            merged = tuple(
                sorted(members[merge.first] + members[merge.second])
            )
            if len(merged) != merge.size:
                raise ClusteringError(
                    f"Dendrogram: merge {step} claims size {merge.size}, "
                    f"actual {len(merged)}"
                )
            members.append(merged)
        return members

    # -- accessors -------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        """Leaf labels in leaf-id order."""
        return self._labels

    @property
    def merges(self) -> tuple[Merge, ...]:
        """The merge sequence."""
        return self._merges

    @property
    def num_leaves(self) -> int:
        """Number of clustered points."""
        return len(self._labels)

    @property
    def is_monotone(self) -> bool:
        """True when merge distances never decrease (no inversions)."""
        distances = [merge.distance for merge in self._merges]
        return all(b >= a - 1e-12 for a, b in zip(distances, distances[1:]))

    def members_of(self, cluster_id: int) -> tuple[str, ...]:
        """Labels of the leaves under a cluster id."""
        if not (0 <= cluster_id < len(self._members)):
            raise ClusteringError(f"Dendrogram: unknown cluster id {cluster_id}")
        return tuple(self._labels[i] for i in self._members[cluster_id])

    # -- cuts -------------------------------------------------------------

    def cut_to_k(self, clusters: int) -> Partition:
        """Partition with exactly ``clusters`` blocks (undo the last merges).

        ``clusters = 1`` is the whole-suite block; ``clusters = n`` the
        all-singletons partition.
        """
        count = self.num_leaves
        if not (1 <= clusters <= count):
            raise ClusteringError(
                f"cut_to_k: cluster count must be in 1..{count}, got {clusters}"
            )
        return self._partition_after(count - clusters)

    def cut_at_distance(self, distance: float) -> Partition:
        """Partition from merging everything closer than ``distance``.

        Applies merges, in order, while their merging distance is at
        most ``distance`` — the horizontal-line cut of Figure 4.  For
        non-monotone linkages (dendrogram inversions) the cut is taken
        at the first merge exceeding the threshold, matching how the
        figure would be read.
        """
        if not math.isfinite(distance) or distance < 0.0:
            raise ClusteringError(
                f"cut_at_distance: distance must be finite and >= 0, got {distance}"
            )
        applied = 0
        for merge in self._merges:
            if merge.distance > distance:
                break
            applied += 1
        return self._partition_after(applied)

    def _partition_after(self, merges_applied: int) -> Partition:
        count = self.num_leaves
        parent = list(range(count))

        def find(node: int) -> int:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        cluster_root: dict[int, int] = {i: i for i in range(count)}
        for step in range(merges_applied):
            merge = self._merges[step]
            root_a = find(cluster_root[merge.first])
            root_b = find(cluster_root[merge.second])
            parent[root_b] = root_a
            cluster_root[count + step] = root_a

        blocks: dict[int, list[str]] = {}
        for leaf in range(count):
            blocks.setdefault(find(leaf), []).append(self._labels[leaf])
        return Partition(blocks.values())

    def merging_distance_for(self, clusters: int) -> float:
        """The smallest cut distance that yields at most ``clusters`` blocks.

        This is the y-axis value at which the dendrogram shows the
        given cluster count; ``clusters = num_leaves`` gives 0.
        """
        count = self.num_leaves
        if not (1 <= clusters <= count):
            raise ClusteringError(
                f"merging_distance_for: cluster count must be in 1..{count}"
            )
        if clusters == count:
            return 0.0
        return self._merges[count - clusters - 1].distance

    def partitions(self) -> Iterator[tuple[int, Partition]]:
        """Yield ``(cluster_count, partition)`` from n blocks down to 1."""
        for clusters in range(self.num_leaves, 0, -1):
            yield clusters, self.cut_to_k(clusters)

    # -- rendering support --------------------------------------------------

    def leaf_order(self) -> tuple[str, ...]:
        """Leaves ordered so every cluster is contiguous (plot order)."""
        count = self.num_leaves
        # Depth-first, first child before second, with an explicit
        # stack: a chained tree is as deep as it has leaves.
        order: list[str] = []
        pending = [count + len(self._merges) - 1]
        while pending:
            cluster_id = pending.pop()
            if cluster_id < count:
                order.append(self._labels[cluster_id])
                continue
            merge = self._merges[cluster_id - count]
            pending.append(merge.second)
            pending.append(merge.first)
        return tuple(order)

    def cophenetic_matrix(self) -> np.ndarray:
        """Matrix of cophenetic distances (merge height joining each pair).

        Ordered by leaf id; the diagonal is zero.  Used by the
        cophenetic correlation quality metric.
        """
        count = self.num_leaves
        matrix = np.zeros((count, count), dtype=float)
        for step, merge in enumerate(self._merges):
            left = self._members[merge.first]
            right = self._members[merge.second]
            for i in left:
                for j in right:
                    matrix[i, j] = merge.distance
                    matrix[j, i] = merge.distance
        return matrix

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dendrogram):
            return NotImplemented
        return self._labels == other._labels and self._merges == other._merges

    def __hash__(self) -> int:
        return hash((self._labels, self._merges))

    def __repr__(self) -> str:
        return (
            f"Dendrogram(num_leaves={self.num_leaves}, "
            f"height={self._merges[-1].distance:.4g})"
            if self._merges
            else f"Dendrogram(num_leaves={self.num_leaves})"
        )


def to_linkage_matrix(dendrogram: "Dendrogram") -> np.ndarray:
    """The dendrogram as a SciPy-style linkage matrix ``Z``.

    Row ``t`` is ``[first, second, distance, size]`` for the merge
    creating cluster ``n + t`` — the format consumed by
    ``scipy.cluster.hierarchy`` (``dendrogram``, ``fcluster``,
    ``cophenet``), so results interoperate with the wider ecosystem
    without adding a SciPy dependency here.
    """
    return np.array(
        [
            [float(m.first), float(m.second), m.distance, float(m.size)]
            for m in dendrogram.merges
        ]
    )
