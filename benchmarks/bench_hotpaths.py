"""Perf hook — the vectorized hot-path kernels vs their scalar ancestors.

Times each hot kernel old vs. new, using the pre-vectorization scalar
formulations preserved in ``tests/reference_kernels.py`` as the "old"
side, and archives the numbers in ``results/BENCH_hotpaths.json``:

1. **SOM sequential fit** — the paper's SAR-A configuration (8x8 map,
   500 steps/sample) at both the prepared-matrix dimensionality
   (13, 216) and the reduced dimensionality (13, 14); the vectorized
   loop must stay **bitwise identical** to the scalar one, so the
   comparison is exact, not approximate;
2. **SOM batch influence** — per-BMU ``np.stack`` row gathering vs one
   fancy-indexed lookup into the grid's cached distance table;
3. **pairwise distances** — the O(n^2) per-pair python loop vs the
   broadcast/Gram fast paths, for all five named metrics;
4. **linkage fit** — complete-linkage clustering of SOM map positions
   (integer points on a 13x13 lattice, so ties abound): the
   full-matrix masked-argmin loop vs the cached nearest-neighbour
   search, which must produce exactly the same merges;
5. **bootstrap** — one-replicate-at-a-time resampling + scalar
   ``hierarchical_mean`` calls vs the matrix resampler +
   ``hierarchical_mean_many``, equal at 1e-12 for the same seed.

A second bench, ``test_som_scaling_reduce_stage``, sweeps the batch
reduce stage across suite sizes (the paper's 13 workloads up to the
ROADMAP's 1000) on :func:`repro.synthetic.big_suite` counter matrices,
timing the exact search against the pruned strategy, and archives
``results/BENCH_som_scaling.json`` for the ``--som-scaling`` gate in
``scripts/check_bench_regression.py``.

``scripts/check_bench_regression.py`` compares a fresh run of this
bench against the committed baseline.  Set ``BENCH_HOTPATHS_SMOKE=1``
(CI does) to shrink the workloads so the bench finishes in seconds;
smoke runs still check every equivalence, they just measure less.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import emit, write_bench_json
from repro.cluster.agglomerative import AgglomerativeClustering
from repro.core.confidence import _resampled_speedup_matrix
from repro.core.hierarchical import hierarchical_mean_many
from repro.core.partition import Partition
from repro.som.bmu import bmu_indices
from repro.som.grid import Grid
from repro.som.quality import quantization_error
from repro.som.som import SOMConfig, SelfOrganizingMap
from repro.stats.distance import DISTANCE_METRICS, pairwise_distances
from repro.synthetic import big_suite
from repro.viz.tables import format_table
from repro.workloads.execution import RunSample

from tests.reference_kernels import (
    reference_agglomerative_merges,
    reference_bootstrap_scores,
    reference_pairwise_distances,
    reference_resampled_speedups,
    reference_sequential_weights,
)

SMOKE = os.environ.get("BENCH_HOTPATHS_SMOKE") == "1"

# SAR-A production shape: 8x8 map, 500 sequential steps per sample,
# 13 workloads x 216 prepared counter ratios (and x14 after PCA).
STEPS_PER_SAMPLE = 25 if SMOKE else 500
SOM_SHAPES = ((13, 216), (13, 14))
PAIRWISE_SHAPE = (24, 16) if SMOKE else (64, 216)
# 1000 workloads fill a 13x13 map (the big-suite regime) with many
# workloads per cell.
LINKAGE_POINTS = 200 if SMOKE else 1000
LINKAGE_LATTICE = 13
BOOTSTRAP_RESAMPLES = 50 if SMOKE else 1000
BOOTSTRAP_WORKLOADS = [f"w{i}" for i in range(1, 14)]
BOOTSTRAP_PARTITION = Partition(
    [
        ["w1", "w2", "w3", "w4"],
        ["w5", "w6"],
        ["w7", "w8", "w9", "w10"],
        ["w11"],
        ["w12", "w13"],
    ]
)


def _best_of(fn, repeats):
    """Best wall time over ``repeats`` calls, plus the last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _bench_som_sequential():
    rows = {}
    for shape in SOM_SHAPES:
        config = SOMConfig(steps_per_sample=STEPS_PER_SAMPLE)
        rng = np.random.default_rng(shape[1])
        data = rng.normal(size=shape) * 3.0 + 1.0
        old_seconds, old_weights = _best_of(
            lambda: reference_sequential_weights(config, data), repeats=1
        )
        new_seconds, som = _best_of(
            lambda: SelfOrganizingMap(config).fit(data), repeats=1
        )
        assert np.array_equal(old_weights, som.weights), (
            f"sequential fit at {shape} drifted from the scalar reference"
        )
        rows[f"{config.rows}x{config.columns} dim={shape[1]}"] = {
            "steps": STEPS_PER_SAMPLE * shape[0],
            "reference_seconds": old_seconds,
            "vectorized_seconds": new_seconds,
            "speedup": old_seconds / new_seconds,
            "bitwise_equal": True,
        }
    return rows


def _bench_som_batch():
    config = SOMConfig(seed=6)
    rng = np.random.default_rng(0)
    data = rng.normal(size=(13, 216))
    fit_seconds, som = _best_of(
        lambda: SelfOrganizingMap(config).fit(data, mode="batch"), repeats=1
    )
    grid = som.grid
    bmus = som._bmus_of(data)

    def stacked():
        return np.stack([grid.squared_map_distances_from(int(b)) for b in bmus])

    def fancy():
        return grid.squared_distance_table[bmus]

    loops = 200 if SMOKE else 2000
    old_seconds, old_rows = _best_of(
        lambda: [stacked() for _ in range(loops)][-1], repeats=3
    )
    new_seconds, new_rows = _best_of(
        lambda: [fancy() for _ in range(loops)][-1], repeats=3
    )
    assert np.array_equal(old_rows, new_rows)
    return {
        "fit_seconds": fit_seconds,
        "epochs": som.epochs_trained,
        "influence_gather_loops": loops,
        "stack_seconds": old_seconds,
        "fancy_index_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
    }


def _bench_pairwise():
    rng = np.random.default_rng(3)
    points = rng.normal(size=PAIRWISE_SHAPE) * rng.lognormal(size=PAIRWISE_SHAPE)
    rows = {}
    for metric in sorted(DISTANCE_METRICS):
        old_seconds, old_matrix = _best_of(
            lambda m=metric: reference_pairwise_distances(
                points, DISTANCE_METRICS[m]
            ),
            repeats=1 if SMOKE else 3,
        )
        new_seconds, new_matrix = _best_of(
            lambda m=metric: pairwise_distances(points, metric=m),
            repeats=3 if SMOKE else 10,
        )
        assert np.allclose(old_matrix, new_matrix, rtol=1e-12, atol=1e-12)
        rows[metric] = {
            "loop_seconds": old_seconds,
            "vectorized_seconds": new_seconds,
            "speedup": old_seconds / new_seconds,
        }
    return rows


def _bench_linkage():
    rng = np.random.default_rng(8)
    points = rng.integers(
        0, LINKAGE_LATTICE, size=(LINKAGE_POINTS, 2)
    ).astype(float)
    distances = pairwise_distances(points)
    old_seconds, old_merges = _best_of(
        lambda: reference_agglomerative_merges(distances, "complete"),
        repeats=1,
    )
    new_seconds, dendrogram = _best_of(
        lambda: AgglomerativeClustering().fit_distance_matrix(distances),
        repeats=3,
    )
    assert dendrogram.merges == old_merges, (
        "cached nearest-neighbour search drifted from the full-matrix loop"
    )
    return {
        "units": LINKAGE_POINTS,
        "lattice": f"{LINKAGE_LATTICE}x{LINKAGE_LATTICE}",
        "reference_seconds": old_seconds,
        "fit_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
    }


def _bootstrap_inputs():
    rng = np.random.default_rng(9)

    def samples(machine, scale):
        return {
            name: RunSample(
                workload=name,
                machine=machine,
                times=tuple(
                    float(t)
                    for t in rng.lognormal(mean=np.log(scale), sigma=0.1, size=10)
                ),
            )
            for name in BOOTSTRAP_WORKLOADS
        }

    return samples("R", 10.0), samples("A", 4.0)


def _bench_bootstrap():
    reference_samples, machine_samples = _bootstrap_inputs()
    ref_times = {n: reference_samples[n].times for n in BOOTSTRAP_WORKLOADS}
    mach_times = {n: machine_samples[n].times for n in BOOTSTRAP_WORKLOADS}

    def scalar():
        speedups = reference_resampled_speedups(
            ref_times,
            mach_times,
            BOOTSTRAP_WORKLOADS,
            BOOTSTRAP_RESAMPLES,
            np.random.default_rng(21),
        )
        return reference_bootstrap_scores(
            speedups,
            BOOTSTRAP_WORKLOADS,
            BOOTSTRAP_PARTITION,
            "geometric",
            BOOTSTRAP_RESAMPLES,
            seed=21,
        )

    def vectorized():
        matrix = _resampled_speedup_matrix(
            reference_samples,
            machine_samples,
            BOOTSTRAP_WORKLOADS,
            BOOTSTRAP_RESAMPLES,
            np.random.default_rng(21),
        )
        return hierarchical_mean_many(
            matrix, BOOTSTRAP_WORKLOADS, BOOTSTRAP_PARTITION, mean="geometric"
        )

    old_seconds, old_scores = _best_of(scalar, repeats=1 if SMOKE else 3)
    new_seconds, new_scores = _best_of(vectorized, repeats=3 if SMOKE else 10)
    assert np.allclose(old_scores, new_scores, rtol=1e-12, atol=0.0)
    return {
        "resamples": BOOTSTRAP_RESAMPLES,
        "workloads": len(BOOTSTRAP_WORKLOADS),
        "scalar_seconds": old_seconds,
        "vectorized_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
    }


@pytest.mark.benchmark(group="hotpaths")
def test_hotpath_kernels_speedup(benchmark):
    payload = benchmark.pedantic(
        lambda: {
            "smoke": SMOKE,
            "som_sequential": _bench_som_sequential(),
            "som_batch": _bench_som_batch(),
            "pairwise": _bench_pairwise(),
            "linkage": _bench_linkage(),
            "bootstrap": _bench_bootstrap(),
        },
        rounds=1,
        iterations=1,
    )
    write_bench_json("hotpaths", payload, config={"smoke": SMOKE})

    table_rows = []
    for shape, stats in payload["som_sequential"].items():
        table_rows.append(
            (
                f"SOM sequential {shape}",
                stats["reference_seconds"],
                stats["vectorized_seconds"],
                stats["speedup"],
            )
        )
    table_rows.append(
        (
            "SOM batch influence gather",
            payload["som_batch"]["stack_seconds"],
            payload["som_batch"]["fancy_index_seconds"],
            payload["som_batch"]["speedup"],
        )
    )
    for metric, stats in payload["pairwise"].items():
        table_rows.append(
            (
                f"pairwise {metric}",
                stats["loop_seconds"],
                stats["vectorized_seconds"],
                stats["speedup"],
            )
        )
    table_rows.append(
        (
            f"linkage fit x{payload['linkage']['units']}",
            payload["linkage"]["reference_seconds"],
            payload["linkage"]["fit_seconds"],
            payload["linkage"]["speedup"],
        )
    )
    table_rows.append(
        (
            f"bootstrap x{payload['bootstrap']['resamples']}",
            payload["bootstrap"]["scalar_seconds"],
            payload["bootstrap"]["vectorized_seconds"],
            payload["bootstrap"]["speedup"],
        )
    )
    emit(
        "Hot-path kernels: scalar reference vs vectorized "
        + ("(smoke)" if SMOKE else "(full)"),
        format_table(["Kernel", "old s", "new s", "speedup"], table_rows),
    )

    # Equivalence asserted above; the perf claims only hold on a
    # full-size run (smoke shapes are too small to dominate overhead).
    if not SMOKE:
        for stats in payload["som_sequential"].values():
            assert stats["speedup"] > 1.0
        assert payload["bootstrap"]["speedup"] > 5.0
        assert payload["linkage"]["speedup"] > 1.0
        for stats in payload["pairwise"].values():
            assert stats["speedup"] > 1.0


# -- reduce-stage scaling sweep ------------------------------------------

# Suite sizes the reduce stage is swept over: the paper's 13x21 suite,
# a mid-size 100-workload suite, and the ROADMAP's 1000-workload regime
# at two counter dimensionalities.  Grids follow Vesanto's heuristic
# via Grid.suggested_shape.
SOM_SCALING_SHAPES = (
    ((13, 21), (100, 45), (200, 32))
    if SMOKE
    else ((13, 21), (100, 45), (1000, 64), (1000, 500))
)
SOM_SCALING_REPEATS = 1 if SMOKE else 3
SOM_SCALING_SEED = 20260807


def _standardized_suite(n_workloads: int, n_dims: int) -> np.ndarray:
    """A big_suite counter matrix, columns standardized like real runs."""
    raw = big_suite(n_workloads, n_dims, seed=SOM_SCALING_SEED)
    std = raw.std(axis=0)
    return (raw - raw.mean(axis=0)) / np.where(std > 0.0, std, 1.0)


def _bench_som_scaling():
    rows = {}
    for n_workloads, n_dims in SOM_SCALING_SHAPES:
        data = _standardized_suite(n_workloads, n_dims)
        grid_rows, grid_cols = Grid.suggested_shape(n_workloads)
        config = SOMConfig(rows=grid_rows, columns=grid_cols, seed=7)

        # Interleave the exact and pruned measurements so drift in
        # machine load hits both sides equally; best-of-N on each.
        exact_seconds = pruned_seconds = float("inf")
        som_exact = som_pruned = None
        for _ in range(SOM_SCALING_REPEATS):
            seconds, som_exact = _best_of(
                lambda: SelfOrganizingMap(config).fit(data, mode="batch"),
                repeats=1,
            )
            exact_seconds = min(exact_seconds, seconds)
            seconds, som_pruned = _best_of(
                lambda: SelfOrganizingMap(config).fit(
                    data, mode="batch", bmu_strategy="pruned"
                ),
                repeats=1,
            )
            pruned_seconds = min(pruned_seconds, seconds)

        qe_exact = quantization_error(som_exact, data)
        qe_pruned = quantization_error(som_pruned, data)
        qe_delta_pct = (
            abs(qe_pruned - qe_exact) / qe_exact * 100.0 if qe_exact else 0.0
        )
        agreement = float(
            np.mean(
                bmu_indices(data, som_exact.weights)
                == bmu_indices(data, som_pruned.weights)
            )
        )
        search_stats = som_pruned.bmu_stats

        assert qe_delta_pct <= 1.0, (
            f"pruned QE drifted {qe_delta_pct:.3f}% at "
            f"{n_workloads}x{n_dims} (tolerance is 1%)"
        )

        rows[f"{n_workloads}x{n_dims}"] = {
            "grid": f"{grid_rows}x{grid_cols}",
            "epochs": som_exact.epochs_trained,
            "exact_seconds": exact_seconds,
            "pruned_seconds": pruned_seconds,
            "pruned_speedup": exact_seconds / pruned_seconds,
            "qe_exact": qe_exact,
            "qe_pruned": qe_pruned,
            "qe_delta_pct": qe_delta_pct,
            "bmu_agreement": agreement,
            "pruning_rate": search_stats["pruning_rate"],
            "candidates_per_epoch": search_stats["candidates"]
            / max(1, search_stats["calls"]),
            "fallbacks": search_stats["fallbacks"],
        }
    return rows


@pytest.mark.benchmark(group="hotpaths")
def test_som_scaling_reduce_stage(benchmark):
    payload = benchmark.pedantic(
        lambda: {"smoke": SMOKE, "shapes": _bench_som_scaling()},
        rounds=1,
        iterations=1,
    )
    write_bench_json("som_scaling", payload, config={"smoke": SMOKE})

    table_rows = [
        (
            shape,
            stats["grid"],
            stats["exact_seconds"],
            stats["pruned_seconds"],
            f"{stats['pruned_speedup']:.2f}x",
            f"{stats['qe_delta_pct']:.4f}%",
            f"{stats['pruning_rate'] * 100.0:.1f}%",
        )
        for shape, stats in payload["shapes"].items()
    ]
    emit(
        "SOM reduce-stage scaling: exact vs pruned "
        + ("(smoke)" if SMOKE else "(full)"),
        format_table(
            [
                "Suite",
                "Grid",
                "exact s",
                "pruned s",
                "speedup",
                "QE delta",
                "pruned",
            ],
            table_rows,
        ),
    )
