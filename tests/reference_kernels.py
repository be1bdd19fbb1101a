"""Slow, obviously-correct reference implementations of the hot kernels.

The vectorized kernels in ``repro.som``, ``repro.stats.distance`` and
``repro.core`` promise *provable output equivalence* with the scalar
formulations they replaced, and ``repro.cluster`` promises the same
merges as its full-matrix search.  This module keeps those
formulations alive — the sequential SOM training loop exactly as it
existed before vectorization, the batch SOM epoch as it was written
in-line before it was factored into search / terms / apply steps, the
per-pair distance loop, the
one-replicate-at-a-time bootstrap, the masked-argmin
agglomerative loop, and the per-sample quantization/topographic
error loops — so the equivalence tests (and the
``bench_hotpaths`` harness, which times old vs. new) can compare
against them forever.

Nothing here is exported through the package; it is test/bench
scaffolding only, deliberately written step-at-a-time.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.cluster.dendrogram import Merge
from repro.cluster.linkage import Linkage, resolve_linkage
from repro.core.hierarchical import hierarchical_mean
from repro.exceptions import ClusteringError
from repro.som.decay import DecaySchedule
from repro.som.grid import Grid
from repro.som.initialization import resolve_initializer
from repro.som.neighborhood import NeighborhoodKernel
from repro.som.som import SOMConfig, SelfOrganizingMap


def reference_sequential_weights(
    config: SOMConfig, matrix: np.ndarray
) -> np.ndarray:
    """Train sequentially with the pre-vectorization scalar loop.

    This is a faithful transcription of ``SOM._fit_sequential`` /
    ``_sequential_steps`` as of PR 3: one scalar RNG draw per step,
    schedules evaluated per step, a fresh diff/kernel allocation per
    step.  Returns the trained weight matrix.
    """
    som = SelfOrganizingMap(config)
    grid: Grid = som.grid
    kernel: NeighborhoodKernel = som._kernel
    alpha_schedule: DecaySchedule = som._alpha
    sigma_schedule: DecaySchedule = som._sigma

    matrix = np.asarray(matrix, dtype=float)
    rng = np.random.default_rng(config.seed)
    initializer = resolve_initializer(config.initialization)
    weights = initializer(grid, matrix, rng).astype(float)

    n_samples = matrix.shape[0]
    total_steps = config.steps_per_sample * n_samples
    denominator = max(total_steps - 1, 1)
    for step in range(total_steps):
        progress = step / denominator
        alpha = alpha_schedule(progress)
        sigma = sigma_schedule(progress)
        sample = matrix[rng.integers(n_samples)]
        diff = weights - sample
        bmu = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
        influence = alpha * kernel(grid.squared_map_distances_from(bmu), sigma)
        weights += influence[:, None] * (sample - weights)
    return weights


def reference_batch_weights(
    config: SOMConfig,
    matrix: np.ndarray,
    *,
    kernel: NeighborhoodKernel | None = None,
    epochs: int = 50,
) -> np.ndarray:
    """Train in batch mode with the in-line exact epoch loop.

    A transcription of ``SOM._fit_batch`` / ``_batch_epoch`` (exact
    strategy) as they stood before the epoch was split into
    ``exact_epoch_terms`` and ``apply_epoch_terms``: einsum BMU search,
    kernel gather, column sums, ``influence.T @ matrix``, and a masked
    divide that leaves uninfluenced units alone.  ``kernel`` overrides
    the configured neighborhood.  Returns the trained weight matrix.
    """
    som = SelfOrganizingMap(config)
    grid: Grid = som.grid
    kernel = som._kernel if kernel is None else kernel
    sigma_schedule: DecaySchedule = som._sigma

    matrix = np.asarray(matrix, dtype=float)
    rng = np.random.default_rng(config.seed)
    initializer = resolve_initializer(config.initialization)
    weights = initializer(grid, matrix, rng).astype(float)

    denominator = max(epochs - 1, 1)
    for epoch in range(epochs):
        sigma = sigma_schedule(epoch / denominator)
        weight_norms = np.einsum("ud,ud->u", weights, weights)
        cross = np.einsum("sd,ud->su", matrix, weights)
        bmus = np.argmin(weight_norms[None, :] - 2.0 * cross, axis=1)
        influence = kernel(grid.squared_distance_table[bmus], sigma)
        totals = influence.sum(axis=0)
        # Units that no sample influences keep their weights.
        active = totals > 1e-12
        numerator = influence.T @ matrix
        weights[active] = numerator[active] / totals[active, None]
    return weights


def reference_pairwise_distances(
    matrix: np.ndarray, metric: Callable[[np.ndarray, np.ndarray], float]
) -> np.ndarray:
    """The O(n^2) per-pair loop all fast paths must reproduce."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            value = float(metric(matrix[i], matrix[j]))
            out[i, j] = value
            out[j, i] = value
    return out


def reference_bootstrap_scores(
    speedups: np.ndarray,
    workloads: Sequence[str],
    partition: Mapping[str, Sequence[str]],
    mean: str,
    resamples: int,
    seed: int,
) -> np.ndarray:
    """One-replicate-at-a-time bootstrap of the hierarchical mean.

    Consumes the Generator stream exactly as the vectorized
    ``repro.core.confidence`` path does (one ``(resamples, n)`` index
    block per workload, reference machine first), then evaluates each
    replicate with a separate scalar ``hierarchical_mean`` call.
    ``speedups`` has shape ``(resamples, n_workloads)``.
    """
    speedups = np.asarray(speedups, dtype=float)
    resamples = int(resamples)
    if speedups.shape != (resamples, len(workloads)):
        raise ValueError(
            f"speedups shape {speedups.shape} != ({resamples}, {len(workloads)})"
        )
    _ = seed  # draws happen upstream; kept for signature symmetry
    scores = np.empty(resamples)
    for index in range(resamples):
        row = {
            workload: float(speedups[index, column])
            for column, workload in enumerate(workloads)
        }
        scores[index] = hierarchical_mean(row, partition, mean=mean)
    return scores


def reference_resampled_speedups(
    reference_times: Mapping[str, Sequence[float]],
    machine_times: Mapping[str, Sequence[float]],
    workloads: Sequence[str],
    resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Scalar per-replicate resampling of per-workload speedups.

    Workload-major draw order: for each workload, one ``(resamples,
    n_ref)`` block of reference-machine indices, then one ``(resamples,
    n_mach)`` block for the machine under test — matching the
    vectorized implementation's stream consumption, but averaging and
    dividing one replicate at a time.
    """
    out = np.empty((resamples, len(workloads)))
    for column, workload in enumerate(workloads):
        ref = np.asarray(reference_times[workload], dtype=float)
        mach = np.asarray(machine_times[workload], dtype=float)
        ref_draws = rng.integers(ref.size, size=(resamples, ref.size))
        mach_draws = rng.integers(mach.size, size=(resamples, mach.size))
        for index in range(resamples):
            ref_mean = ref[ref_draws[index]].mean()
            mach_mean = mach[mach_draws[index]].mean()
            out[index, column] = ref_mean / mach_mean
    return out


def reference_agglomerative_merges(
    distances: np.ndarray, linkage: str | Linkage
) -> tuple[Merge, ...]:
    """Merges of the full-matrix agglomerative search.

    A verbatim transcription of ``AgglomerativeClustering
    .fit_distance_matrix``'s loop before the cached nearest-neighbour
    search: every merge masks the whole working matrix to the active
    clusters and takes one flat ``argmin`` over all n^2 cells, so ties
    go to the first row, then the first column.  O(n^3) overall.
    Expects a matrix that already passed the fit's input checks.
    """
    linkage = resolve_linkage(linkage)
    matrix = np.asarray(distances, dtype=float)
    count = matrix.shape[0]
    working = matrix.astype(float).copy()
    np.fill_diagonal(working, np.inf)
    active = np.ones(count, dtype=bool)
    cluster_ids = list(range(count))
    sizes = np.ones(count, dtype=int)
    merges: list[Merge] = []

    for step in range(count - 1):
        masked = np.where(active[:, None] & active[None, :], working, np.inf)
        flat_index = int(np.argmin(masked))
        p, q = divmod(flat_index, count)
        if p == q or not np.isfinite(masked[p, q]):
            raise ClusteringError("fit: no finite pair distance found")
        if p > q:
            p, q = q, p

        distance = float(working[p, q])
        merges.append(
            Merge(
                first=cluster_ids[p],
                second=cluster_ids[q],
                distance=distance,
                size=int(sizes[p] + sizes[q]),
            )
        )

        others = active.copy()
        others[p] = False
        others[q] = False
        updated = linkage.update(
            working[p, others],
            working[q, others],
            distance,
            int(sizes[p]),
            int(sizes[q]),
            sizes[others],
        )
        working[p, others] = updated
        working[others, p] = updated
        active[q] = False
        sizes[p] += sizes[q]
        cluster_ids[p] = count + step
    return tuple(merges)


def _reference_distances(weights: np.ndarray, sample: np.ndarray) -> np.ndarray:
    diff = weights - sample
    return np.einsum("ij,ij->i", diff, diff)


def reference_quantization_error(som: SelfOrganizingMap, matrix: np.ndarray) -> float:
    """Quantization error as the per-sample loop computed it.

    A transcription of ``repro.som.quality.quantization_error`` before
    the one-pass rewrite: each sample's BMU by a direct squared
    distance, one ``np.linalg.norm`` per sample, summed in a Python
    float in sample order.
    """
    weights = som.weights
    total = 0.0
    for sample in np.asarray(matrix, dtype=float):
        bmu = int(np.argmin(_reference_distances(weights, sample)))
        total += float(np.linalg.norm(sample - weights[bmu]))
    return total / matrix.shape[0]


def reference_topographic_error(som: SelfOrganizingMap, matrix: np.ndarray) -> float:
    """Topographic error as the per-sample loop computed it.

    A transcription of ``repro.som.quality.topographic_error`` before
    the one-pass rewrite: three distance searches per sample, the
    second unit as ``np.argsort(distances)[1]`` (which can return the
    BMU itself when the two nearest units tie, so compare against it
    on tie-free data only), and one ``are_lattice_neighbors`` call per
    sample.
    """
    weights = som.weights
    errors = 0
    for sample in np.asarray(matrix, dtype=float):
        best = int(np.argmin(_reference_distances(weights, sample)))
        second = int(np.argsort(_reference_distances(weights, sample))[1])
        if not som.grid.are_lattice_neighbors(best, second):
            errors += 1
    return errors / matrix.shape[0]
