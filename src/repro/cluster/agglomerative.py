"""Agglomerative hierarchical clustering (Section III-B).

Implements the paper's pseudo-code directly:

    Initialize: assign each training point to a single cluster
    Repeat:
        compute cluster-to-cluster distance for all pairs
        find the two clusters with minimum distance
        create a new cluster by merging those two
    Continue until all the points result in a single cluster

with the cluster-to-cluster distance delegated to a pluggable
:class:`~repro.cluster.linkage.Linkage` (complete linkage with
Euclidean point distance is the paper's configuration and the
default).  Distance updates use the Lance-Williams recurrences, so no
pair distance is recomputed from the points.

"Find the two clusters with minimum distance" keeps one cached
nearest neighbour per row of the working matrix: each row's minimum
and the first column holding it.  A merge takes the first row holding
the smallest cached minimum and that row's cached column — the cell a
flat ``argmin`` over the whole matrix would return, so ties go to the
lowest row, then the lowest column.  It then updates the merged row in
O(n), folds the new column into every other row's cache in O(n), and
rescans, in O(n) each, only the rows whose cached column was one of
the two merged clusters.

Co-located points are collapsed before that loop.  When many
workloads share a SOM cell, the first merges only stack points at
distance 0, in the order the flat ``argmin`` takes them: groups of
identical rows by their lowest index, members in ascending order.
Those merges are emitted in bulk and folded into the leaders' rows
(one O(g) Lance-Williams update per member, g the number of distinct
positions); the cached loop then runs on the g x g matrix of distinct
positions.  Memory is O(n^2) for the input and O(g^2) for the loop.
Time is O(n^2) for the input checks and the collapse, plus O(g^2) and
O(g) per rescanned row in the loop: O(g^3) if every merge left every
row stale, but under four rescans per merge, the merged row included,
on SOM map positions.  1000 workloads on a 13x13 map sit on ~170
cells, so 830 of the 999 merges never reach the loop.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.cluster.dendrogram import Dendrogram, Merge
from repro.cluster.linkage import LINKAGES, Linkage, resolve_linkage
from repro.exceptions import ClusteringError
from repro.stats.distance import DistanceMetric, pairwise_distances

__all__ = ["AgglomerativeClustering"]

# The linkages known to be elementwise and to map (0, 0, 0) to 0 — the
# contract the co-located collapse relies on (see `Linkage.update`).
# Matched by exact type: a subclass may override `update`.
_COLLAPSIBLE = frozenset(LINKAGES.values())


class AgglomerativeClustering:
    """Bottom-up hierarchical clustering over labelled points.

    Parameters
    ----------
    linkage:
        Cluster-to-cluster distance rule; the paper uses
        ``"complete"``.
    metric:
        Point-to-point distance; the paper uses ``"euclidean"``.

    Example
    -------
    >>> algo = AgglomerativeClustering()
    >>> dendro = algo.fit([[0.0], [0.1], [5.0]], labels=["a", "b", "c"])
    >>> dendro.cut_to_k(2).blocks
    (('a', 'b'), ('c',))
    """

    def __init__(
        self,
        *,
        linkage: str | Linkage = "complete",
        metric: str | DistanceMetric = "euclidean",
    ) -> None:
        self._linkage = resolve_linkage(linkage)
        self._metric = metric

    @property
    def linkage(self) -> Linkage:
        """The configured linkage rule."""
        return self._linkage

    def fit(
        self,
        points: Sequence[Sequence[float]] | np.ndarray,
        *,
        labels: Sequence[str] | None = None,
    ) -> Dendrogram:
        """Cluster row-vector points and return the full merge tree."""
        matrix = np.asarray(points, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ClusteringError(
                f"fit: expected a non-empty 2-D point matrix, got {matrix.shape}"
            )
        resolved_labels = self._resolve_labels(matrix.shape[0], labels)
        distances = pairwise_distances(matrix, metric=self._metric)
        return self.fit_distance_matrix(distances, labels=resolved_labels)

    def fit_distance_matrix(
        self,
        distances: Sequence[Sequence[float]] | np.ndarray,
        *,
        labels: Sequence[str] | None = None,
    ) -> Dendrogram:
        """Cluster from a precomputed symmetric distance matrix.

        Useful when distances come from somewhere other than row
        vectors — e.g. map-space distances between SOM cells, which is
        exactly how the paper chains SOM and clustering.
        """
        matrix = np.asarray(distances, dtype=float)
        count = matrix.shape[0]
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or count == 0:
            raise ClusteringError(
                f"fit_distance_matrix: expected a square matrix, got {matrix.shape}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ClusteringError("fit_distance_matrix: distances contain NaN/inf")
        symmetric = np.array_equal(matrix, matrix.T)
        if not symmetric and not np.allclose(matrix, matrix.T, atol=1e-9):
            raise ClusteringError("fit_distance_matrix: matrix is not symmetric")
        if np.any(np.diag(matrix) != 0.0):
            raise ClusteringError("fit_distance_matrix: diagonal must be zero")
        if np.any(matrix < 0.0):
            raise ClusteringError("fit_distance_matrix: distances must be >= 0")
        resolved_labels = self._resolve_labels(count, labels)

        if count == 1:
            return Dendrogram(resolved_labels, [])

        # Working state: `working[i, j]` is the current linkage distance
        # between active clusters, `inf` once either slot is retired;
        # `cluster_ids[i]` maps matrix slots to dendrogram cluster ids;
        # `sizes[i]` tracks member counts.  `row_min[i]`/`row_arg[i]`
        # cache each row's minimum and the first column holding it
        # (`inf`/-1 for retired rows).  The collapse, when it applies,
        # hands over the distinct positions with their merges so far.
        collapsed = self._collapse_colocated(matrix) if symmetric else None
        if collapsed is None:
            working = matrix.copy()
            np.fill_diagonal(working, np.inf)
            cluster_ids = list(range(count))
            sizes = np.ones(count, dtype=int)
            merges: list[Merge] = []
        else:
            working, cluster_ids, sizes, merges = collapsed
        slots = working.shape[0]
        first_id = count + len(merges)
        retired = np.zeros(slots, dtype=bool)
        row_arg = working.argmin(axis=1)
        row_min = working.min(axis=1)

        for step in range(slots - 1):
            # The first row holding the global minimum, then its first
            # column: the cell a flat argmin over the matrix returns.
            row = int(row_min.argmin())
            column = int(row_arg[row])
            if not math.isfinite(row_min[row]):
                raise ClusteringError("fit: no finite pair distance found")
            p, q = (row, column) if row < column else (column, row)

            distance = float(working[p, q])
            merges.append(
                Merge(
                    first=cluster_ids[p],
                    second=cluster_ids[q],
                    distance=distance,
                    size=int(sizes[p] + sizes[q]),
                )
            )

            # Lance-Williams update into slot p over whole rows (each
            # entry depends only on its own column); the entries for p
            # and for retired slots, q now included, go back to `inf`
            # whatever the linkage made of them.  Retire slot q.
            retired[q] = True
            updated = self._linkage.update(
                working[p],
                working[q],
                distance,
                int(sizes[p]),
                int(sizes[q]),
                sizes,
            )
            np.copyto(updated, np.inf, where=retired)
            updated[p] = np.inf
            working[p] = updated
            working[:, p] = updated
            working[q] = np.inf
            working[:, q] = np.inf
            sizes[p] += sizes[q]
            cluster_ids[p] = first_id + step

            # Rows whose cached column was p or q are stale (row p
            # changed wholesale, so it is marked to join them).  Every
            # other row only sees column p change to `updated`: fold it
            # in, taking p on a tie only when it comes before the
            # cached column.
            row_min[q] = np.inf
            row_arg[q] = -1
            row_arg[p] = p
            stale = ((row_arg == p) | (row_arg == q)).nonzero()[0]
            closer = (updated < row_min) | (
                (updated == row_min) & (row_arg > p)
            )
            row_min[closer] = updated[closer]
            row_arg[closer] = p
            block = working[stale]
            row_arg[stale] = block.argmin(axis=1)
            row_min[stale] = block.min(axis=1)

        return Dendrogram(resolved_labels, merges)

    def _collapse_colocated(
        self, matrix: np.ndarray
    ) -> tuple[np.ndarray, list[int], np.ndarray, list[Merge]] | None:
        """Merge every group of co-located points, in the loop's order.

        A group is a set of points at distance 0 from each other and
        from nothing else; its leader is its lowest index.  The flat
        ``argmin`` takes the zero-distance merges first: the lowest
        leader's group, members in ascending order, then the next
        group.  Each member is folded into its leader's row of the
        leaders' submatrix with the Lance-Williams update the loop would
        run.  Returns the g x g working matrix of the leaders (diagonal
        ``inf``), their cluster ids and sizes, and the zero merges — or
        ``None`` when the input has no co-located points or the collapse
        cannot promise the loop's exact merges:

        * the linkage is not exactly one of the built-in classes;
        * a point's row is not bitwise equal to its leader's;
        * the diagonal holds a ``-0.0`` (Ward and centroid would turn a
          later zero merge distance into ``+0.0``);
        * a fold made a distance between two groups 0, so the loop would
          have taken it among the zero merges.

        Expects an exactly symmetric matrix that passed the input checks:
        the fold reads a member's column through its leader's, which
        only holds when rows and columns agree.
        """
        linkage = self._linkage
        if type(linkage) not in _COLLAPSIBLE:
            return None
        count = matrix.shape[0]
        leader = (matrix == 0.0).argmax(axis=1)
        is_leader = leader == np.arange(count)
        if is_leader.all():
            return None
        # Bitwise-equal rows in a symmetric matrix also rule out a zero
        # between two groups: it would give one leader a zero left of it.
        bits = matrix.view(np.int64)
        if np.signbit(np.diag(matrix)).any() or not np.array_equal(
            bits, bits[leader]
        ):
            return None

        leaders = is_leader.nonzero()[0]
        counts = np.bincount(leader)[leaders]
        working = matrix[np.ix_(leaders, leaders)]
        np.fill_diagonal(working, np.inf)
        cluster_ids = leaders.tolist()
        sizes = np.ones(len(leaders), dtype=int)
        merges: list[Merge] = []
        # Rows by leader, then ascending: each group starts with its leader.
        grouped = np.argsort(leader, kind="stable")
        ends = np.cumsum(counts)
        next_id = count
        for slot in (counts > 1).nonzero()[0]:
            group = grouped[ends[slot] - counts[slot] : ends[slot]]
            # The loop folds each member's row into the leader's; a
            # member's row is the leader's row before the group merged.
            row = working[slot]
            folded = row
            size = 1
            for member, distance in zip(
                group[1:].tolist(), matrix[group[0], group[1:]].tolist()
            ):
                merges.append(
                    Merge(
                        first=cluster_ids[slot],
                        second=member,
                        distance=distance,
                        size=size + 1,
                    )
                )
                folded = linkage.update(folded, row, distance, size, 1, sizes)
                size += 1
                cluster_ids[slot] = next_id
                next_id += 1
            sizes[slot] = size
            folded[slot] = np.inf
            working[slot] = folded
            working[:, slot] = folded
        # Under these linkages a folded-in zero stays zero through every
        # later fold, so checking the end result covers every step.
        if (working == 0.0).any():
            return None
        return working, cluster_ids, sizes, merges

    @staticmethod
    def _resolve_labels(
        count: int, labels: Sequence[str] | None
    ) -> tuple[str, ...]:
        if labels is None:
            return tuple(f"point-{i}" for i in range(count))
        if len(labels) != count:
            raise ClusteringError(
                f"fit: {len(labels)} labels for {count} points"
            )
        return tuple(labels)
