"""Cluster-to-cluster distance (linkage) rules.

The paper chooses **complete linkage**: "the distance of the furthest
pair of points from each cluster", ``d(w_i, w_j) = max d(x, y)``
(Section III-B).  Single, average, Ward and centroid linkage are
provided for ablation studies.

Each rule is expressed in Lance-Williams form — the distance from a
freshly merged cluster ``(p ∪ q)`` to any other cluster ``k`` as a
function of the pre-merge distances — which lets the agglomerative
algorithm update its distance matrix in O(n) per merge.  The direct
set-to-set definitions are also provided (``between``) so the test
suite can verify the recurrences against brute force.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ClusteringError

__all__ = [
    "Linkage",
    "SingleLinkage",
    "CompleteLinkage",
    "AverageLinkage",
    "WardLinkage",
    "CentroidLinkage",
    "resolve_linkage",
    "LINKAGES",
]


class Linkage:
    """Interface for linkage rules.

    ``update`` implements the Lance-Williams recurrence; ``between``
    the direct definition on raw point indices (used for testing and
    documentation, not on the hot path).
    """

    #: Whether merge distances are guaranteed non-decreasing.
    monotone: bool = True

    def update(
        self,
        d_pk: np.ndarray,
        d_qk: np.ndarray,
        d_pq: float,
        size_p: int,
        size_q: int,
        sizes_k: np.ndarray,
    ) -> np.ndarray:
        """Distances from the merged cluster ``p ∪ q`` to every other cluster.

        Elementwise over ``k``: the agglomerative fit passes whole
        matrix rows, and discards the entries for ``p``, ``q`` and
        retired slots (whose inputs are ``inf``).

        The fit's collapse of co-located points relies on two more
        properties: each entry depends only on the same entry of
        ``d_pk``, ``d_qk`` and ``sizes_k``, and zero inputs
        (``d_pk = d_qk = d_pq = 0``) give 0.  It trusts them only for
        the five built-in classes; any other class, subclasses
        included, takes the plain merge loop.
        """
        raise NotImplementedError

    def between(
        self,
        distances: np.ndarray,
        members_a: Sequence[int],
        members_b: Sequence[int],
    ) -> float:
        """Direct set-to-set distance given the point distance matrix."""
        raise NotImplementedError

    @staticmethod
    def _submatrix(
        distances: np.ndarray, members_a: Sequence[int], members_b: Sequence[int]
    ) -> np.ndarray:
        if len(members_a) == 0 or len(members_b) == 0:
            raise ClusteringError("linkage: empty cluster")
        return distances[np.ix_(list(members_a), list(members_b))]


class SingleLinkage(Linkage):
    """Nearest-pair distance: chains easily, finds elongated clusters."""

    def update(self, d_pk, d_qk, d_pq, size_p, size_q, sizes_k):
        return np.minimum(d_pk, d_qk)

    def between(self, distances, members_a, members_b):
        return float(self._submatrix(distances, members_a, members_b).min())


class CompleteLinkage(Linkage):
    """Furthest-pair distance — the paper's choice.

    Produces compact, roughly equal-diameter clusters, which matches
    the intent of grouping *mutually* redundant workloads: every pair
    inside a cluster is within the merging distance.
    """

    def update(self, d_pk, d_qk, d_pq, size_p, size_q, sizes_k):
        return np.maximum(d_pk, d_qk)

    def between(self, distances, members_a, members_b):
        return float(self._submatrix(distances, members_a, members_b).max())


class AverageLinkage(Linkage):
    """Mean pairwise distance (UPGMA)."""

    def update(self, d_pk, d_qk, d_pq, size_p, size_q, sizes_k):
        total = size_p + size_q
        return (size_p * d_pk + size_q * d_qk) / total

    def between(self, distances, members_a, members_b):
        return float(self._submatrix(distances, members_a, members_b).mean())


class WardLinkage(Linkage):
    """Minimum-variance linkage (Ward's method).

    Defined on Euclidean distances; the recurrence tracks the
    square-root form so merge distances remain comparable to the other
    linkages.
    """

    def update(self, d_pk, d_qk, d_pq, size_p, size_q, sizes_k):
        total = size_p + size_q + sizes_k
        squared = (
            (size_p + sizes_k) * d_pk**2
            + (size_q + sizes_k) * d_qk**2
            - sizes_k * d_pq**2
        ) / total
        return np.sqrt(np.clip(squared, 0.0, None))

    def between(self, distances, members_a, members_b):
        raise ClusteringError(
            "WardLinkage has no closed set-to-set form on a distance matrix; "
            "verify it through the recurrence instead"
        )


class CentroidLinkage(Linkage):
    """Distance between cluster centroids (UPGMC).

    Not monotone: merge distances can *decrease* (dendrogram
    inversions), so distance-based cuts are unreliable with it —
    kept for completeness and ablations only.
    """

    monotone = False

    def update(self, d_pk, d_qk, d_pq, size_p, size_q, sizes_k):
        total = size_p + size_q
        squared = (
            size_p * d_pk**2 + size_q * d_qk**2
        ) / total - (size_p * size_q * d_pq**2) / (total * total)
        return np.sqrt(np.clip(squared, 0.0, None))

    def between(self, distances, members_a, members_b):
        raise ClusteringError(
            "CentroidLinkage has no closed set-to-set form on a distance matrix; "
            "verify it through the recurrence instead"
        )


LINKAGES: dict[str, Callable[[], Linkage]] = {
    "single": SingleLinkage,
    "complete": CompleteLinkage,
    "average": AverageLinkage,
    "ward": WardLinkage,
    "centroid": CentroidLinkage,
}
"""Linkage factories by name."""


def resolve_linkage(linkage: str | Linkage) -> Linkage:
    """Linkage instance from a name, or pass an instance through."""
    if isinstance(linkage, Linkage):
        return linkage
    try:
        return LINKAGES[linkage]()
    except KeyError:
        known = ", ".join(sorted(LINKAGES))
        raise ClusteringError(
            f"unknown linkage {linkage!r}; known linkages: {known}"
        ) from None
