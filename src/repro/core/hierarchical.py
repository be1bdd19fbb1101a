"""The hierarchical means — the paper's core contribution (Section II).

Given per-workload scores ``X_ij`` and a cluster partition of the
suite, a hierarchical mean first reduces every cluster to one
representative value with an *inner* mean, then combines the cluster
representatives with an *outer* mean of the same family:

* :func:`hierarchical_geometric_mean` (HGM) —
  ``( prod_i (prod_j X_ij)^(1/n_i) )^(1/k)``
* :func:`hierarchical_arithmetic_mean` (HAM) —
  ``(1/k) * sum_i (1/n_i) * sum_j X_ij``
* :func:`hierarchical_harmonic_mean` (HHM) —
  ``k / sum_i ( (1/n_i) * sum_j 1/X_ij )``

Each degenerates gracefully to its plain mean when every workload is
its own cluster, and to the plain mean of the clustered values when
there is a single cluster of identical workloads — the two properties
the paper proves for HGM and that the test suite verifies for all
three families.

:func:`hierarchical_mean` generalizes to any named mean family, and
:class:`Hierarchy` supports arbitrarily deep cluster trees (e.g.
suite -> sub-suite -> cluster -> workload), an extension the paper's
"averaging in a hierarchical manner" phrasing invites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.means import (
    MEAN_FUNCTIONS,
    _reciprocal_sum,
    arithmetic_mean,
    geometric_mean,
    harmonic_mean,
)
from repro.core.partition import Partition
from repro.exceptions import MeasurementError, PartitionError

__all__ = [
    "cluster_representatives",
    "hierarchical_mean",
    "hierarchical_mean_many",
    "hierarchical_geometric_mean",
    "hierarchical_arithmetic_mean",
    "hierarchical_harmonic_mean",
    "Hierarchy",
]

MeanFunction = Callable[[Sequence[float]], float]

# Axis-1 reductions matching MEAN_FUNCTIONS row-for-row; the kernels
# behind hierarchical_mean_many's per-block reductions.
_AXIS_MEANS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "arithmetic": lambda block: block.mean(axis=1),
    "geometric": lambda block: np.exp(np.log(block).mean(axis=1)),
    "harmonic": lambda block: block.shape[1] / np.sum(1.0 / block, axis=1),
}


def _resolve_mean(mean: str | MeanFunction) -> MeanFunction:
    """Return a plain-mean callable from a family name or a callable."""
    if callable(mean):
        return mean
    try:
        return MEAN_FUNCTIONS[mean]
    except KeyError:
        known = ", ".join(sorted(MEAN_FUNCTIONS))
        raise MeasurementError(
            f"unknown mean family {mean!r}; known families: {known}"
        ) from None


def _validate_scores_against_partition(
    scores: Mapping[str, float], partition: Partition
) -> None:
    """Check that scores and partition cover exactly the same labels."""
    score_labels = set(scores)
    if score_labels != set(partition.labels):
        missing = sorted(partition.labels - score_labels)
        extra = sorted(score_labels - partition.labels)
        detail = []
        if missing:
            detail.append(f"no score for {missing}")
        if extra:
            detail.append(f"scores for labels outside the partition: {extra}")
        raise PartitionError(
            "scores and partition cover different workloads: " + "; ".join(detail)
        )


def cluster_representatives(
    scores: Mapping[str, float],
    partition: Partition,
    *,
    mean: str | MeanFunction = "geometric",
) -> dict[tuple[str, ...], float]:
    """Inner-mean value of every cluster, keyed by the cluster's block.

    This is the intermediate quantity of Section II: each cluster
    collapses to a single representative, cancelling the redundancy of
    its members before the outer mean equalizes the clusters.
    """
    _validate_scores_against_partition(scores, partition)
    inner = _resolve_mean(mean)
    return {
        block: inner([scores[label] for label in block]) for block in partition.blocks
    }


def hierarchical_mean(
    scores: Mapping[str, float],
    partition: Partition,
    *,
    mean: str | MeanFunction = "geometric",
) -> float:
    """Two-level hierarchical mean over an explicit cluster partition.

    Parameters
    ----------
    scores:
        Mapping from workload label to its performance score (the
        paper uses speedup over a reference machine).
    partition:
        Cluster partition over exactly the same labels.
    mean:
        The mean family applied at both levels: ``"geometric"``
        (default, giving HGM), ``"arithmetic"`` (HAM), ``"harmonic"``
        (HHM), or any ``(values) -> float`` callable.
    """
    representatives = cluster_representatives(scores, partition, mean=mean)
    outer = _resolve_mean(mean)
    return outer(list(representatives.values()))


def hierarchical_mean_many(
    scores: Sequence[Sequence[float]] | np.ndarray,
    workloads: Sequence[str],
    partition: Partition,
    *,
    mean: str | MeanFunction = "geometric",
) -> np.ndarray:
    """Hierarchical mean of many score rows at once.

    The matrix form of :func:`hierarchical_mean`: ``scores`` is an
    ``(n_evaluations, n_workloads)`` array whose columns line up with
    ``workloads``, and every row is scored against the same partition
    in one pass of per-block axis reductions — this is what makes
    thousand-replicate bootstraps cheap (see
    :mod:`repro.core.confidence`).  For the named mean families each
    row of the result matches the scalar call to within floating-point
    noise (pinned at 1e-12 by the equivalence tests); a callable
    ``mean`` falls back to scoring row by row.

    Returns an array of ``n_evaluations`` suite scores.
    """
    matrix = np.asarray(scores, dtype=float)
    if matrix.ndim != 2:
        raise MeasurementError(
            "hierarchical_mean_many: expected an (n_evaluations, n_workloads) "
            f"matrix, got shape {matrix.shape}"
        )
    labels = [str(label) for label in workloads]
    if len(labels) != len(set(labels)):
        raise MeasurementError("hierarchical_mean_many: duplicate workload labels")
    if matrix.shape[1] != len(labels):
        raise MeasurementError(
            f"hierarchical_mean_many: {len(labels)} workload labels for "
            f"{matrix.shape[1]} score columns"
        )
    _validate_scores_against_partition(dict.fromkeys(labels, 1.0), partition)

    if callable(mean):
        return np.array(
            [
                hierarchical_mean(dict(zip(labels, row)), partition, mean=mean)
                for row in matrix
            ]
        )
    try:
        reduce_axis1 = _AXIS_MEANS[mean]
    except KeyError:
        known = ", ".join(sorted(MEAN_FUNCTIONS))
        raise MeasurementError(
            f"unknown mean family {mean!r}; known families: {known}"
        ) from None
    if not np.all(np.isfinite(matrix)):
        raise MeasurementError(
            "hierarchical_mean_many: scores contain NaN or infinite values"
        )
    if not np.all(matrix > 0.0):
        worst = float(matrix.min()) if matrix.size else 0.0
        raise MeasurementError(
            f"{mean}_mean: scores must be strictly positive, found {worst}"
        )
    if mean == "harmonic":
        # Every block's reciprocal sum is bounded by its row's.
        _reciprocal_sum(matrix, context="harmonic_mean", axis=1)

    column = {label: index for index, label in enumerate(labels)}
    representatives = np.empty((matrix.shape[0], partition.num_blocks))
    for index, block in enumerate(partition.blocks):
        representatives[:, index] = reduce_axis1(
            matrix[:, [column[label] for label in block]]
        )
    return reduce_axis1(representatives)


def hierarchical_geometric_mean(
    scores: Mapping[str, float], partition: Partition
) -> float:
    """HGM: geometric mean of per-cluster geometric means."""
    return hierarchical_mean(scores, partition, mean=geometric_mean)


def hierarchical_arithmetic_mean(
    scores: Mapping[str, float], partition: Partition
) -> float:
    """HAM: arithmetic mean of per-cluster arithmetic means."""
    return hierarchical_mean(scores, partition, mean=arithmetic_mean)


def hierarchical_harmonic_mean(
    scores: Mapping[str, float], partition: Partition
) -> float:
    """HHM: harmonic mean of per-cluster harmonic means."""
    return hierarchical_mean(scores, partition, mean=harmonic_mean)


@dataclass(frozen=True)
class Hierarchy:
    """An arbitrarily deep cluster tree over workload labels.

    Leaves are workload labels (strings); internal nodes group children
    that should be equalized at that level.  Scoring applies the chosen
    mean bottom-up, so a two-level hierarchy built from a
    :class:`~repro.core.partition.Partition` reproduces
    :func:`hierarchical_mean` exactly — the property tests rely on it.

    Example
    -------
    >>> tree = Hierarchy.from_partition(Partition([["a", "b"], ["c"]]))
    >>> tree.score({"a": 2.0, "b": 8.0, "c": 4.0}, mean="geometric")
    4.0
    """

    children: tuple["Hierarchy | str", ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.children:
            raise PartitionError("Hierarchy: internal node with no children")
        seen = self.leaves()
        if len(seen) != len(set(seen)):
            raise PartitionError("Hierarchy: a label appears in more than one leaf")

    @classmethod
    def from_partition(cls, partition: Partition, *, name: str = "suite") -> "Hierarchy":
        """Two-level tree: root -> cluster nodes -> workload leaves."""
        cluster_nodes: list[Hierarchy | str] = []
        for block in partition.blocks:
            if len(block) == 1:
                cluster_nodes.append(block[0])
            else:
                cluster_nodes.append(cls(children=tuple(block)))
        return cls(children=tuple(cluster_nodes), name=name)

    def leaves(self) -> tuple[str, ...]:
        """All workload labels in the tree, in traversal order."""
        collected: list[str] = []
        for child in self.children:
            if isinstance(child, Hierarchy):
                collected.extend(child.leaves())
            else:
                collected.append(child)
        return tuple(collected)

    @property
    def depth(self) -> int:
        """Number of internal levels (a flat node of leaves has depth 1)."""
        child_depths = [
            child.depth for child in self.children if isinstance(child, Hierarchy)
        ]
        return 1 + (max(child_depths) if child_depths else 0)

    def score(
        self,
        scores: Mapping[str, float],
        *,
        mean: str | MeanFunction = "geometric",
    ) -> float:
        """Bottom-up hierarchical mean over the tree."""
        leaves = self.leaves()
        missing = [label for label in leaves if label not in scores]
        if missing:
            raise PartitionError(f"Hierarchy.score: no score for {missing}")
        mean_fn = _resolve_mean(mean)
        return self._score_node(scores, mean_fn)

    def _score_node(
        self, scores: Mapping[str, float], mean_fn: MeanFunction
    ) -> float:
        values = [
            child._score_node(scores, mean_fn)
            if isinstance(child, Hierarchy)
            else float(scores[child])
            for child in self.children
        ]
        if not np.all(np.isfinite(values)):
            raise MeasurementError("Hierarchy.score: non-finite intermediate value")
        return mean_fn(values)
