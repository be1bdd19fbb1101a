"""Workload ``big-suite``: the six-stage analysis on 1000 synthetic workloads.

In-process library runs on ``repro.synthetic.big_suite(1000, 500, seed)``
with a ``custom`` characterizer, two machines with seeded synthetic
speedups, ``som_mode="batch"`` and the ``Grid.suggested_shape`` grid.  A
fixed cycle of three ops: the exact BMU search and the pruned one, each on
a fresh default engine, then a re-cut with average linkage on the pruned
op's warm engine (reduce and everything upstream replay from memory, so
the clustering stage is the op).  This is the only workload where the
batch SOM and the clustering stage dominate; imports and the service play
no part.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import time

import common

N_WORKLOADS = 1000
N_COUNTERS = 500
SETUP_REPEATS = 4
QE_TOLERANCE = 0.01
CYCLE = ("exact", "pruned", "relink")
# A run holds about three ops of each kind, so the kernel is timed a few
# times after each to average over the host's fast and slow states.
KERNELS_PER_OP = 3


class Problem:
    """One seeded 1000-workload suite and how to analyse it."""

    def __init__(self, seed: int) -> None:
        import numpy as np

        from repro.characterization.base import CharacteristicVectors
        from repro.som.grid import Grid
        from repro.som.som import SOMConfig
        from repro.synthetic import big_suite
        from repro.workloads.suite import BenchmarkSuite, Workload

        raw = big_suite(N_WORKLOADS, N_COUNTERS, seed)
        names = [f"w{index:04d}" for index in range(N_WORKLOADS)]
        counters = [f"c{index:03d}" for index in range(N_COUNTERS)]
        self.suite = BenchmarkSuite(
            [Workload(name, "big-suite", "1.0", "synthetic", name) for name in names],
            name=f"big-suite-{seed}",
        )
        rng = np.random.default_rng(seed)
        self.speedups = {
            machine: dict(zip(names, np.exp(rng.normal(level, 0.3, N_WORKLOADS)).tolist()))
            for machine, level in (("A", 0.5), ("B", 0.3))
        }
        vectors = CharacteristicVectors(names, counters, raw)
        self.characterize = lambda suite: vectors
        rows, columns = Grid.suggested_shape(N_WORKLOADS)
        self.som_config = SOMConfig(rows=rows, columns=columns, seed=seed)

    def pipeline(self, strategy: str, *, linkage: str = "complete", engine=None):
        from repro.analysis.pipeline import WorkloadAnalysisPipeline

        return WorkloadAnalysisPipeline(
            characterization="custom",
            machine=None,
            custom_characterizer=self.characterize,
            speedups=self.speedups,
            som_config=self.som_config,
            linkage=linkage,
            som_mode="batch",
            som_bmu_strategy=strategy,
            engine=engine,
        )


def digest(result) -> str:
    """Everything an analysis decides, hashed: weights, cells, tree, scores, k."""
    hasher = hashlib.sha256(result.som.weights.tobytes())
    hasher.update(repr(sorted(result.positions.items())).encode())
    hasher.update(repr(result.dendrogram.merges).encode())
    hasher.update(repr([(cut.clusters, sorted(cut.scores.items())) for cut in result.cuts]).encode())
    hasher.update(str(result.recommended_clusters).encode())
    return hasher.hexdigest()


class Runner:
    """Runs the cycle's ops and checks each one's output."""

    def __init__(self, problem: Problem, outcome: common.Outcome) -> None:
        from repro.som.quality import quantization_error

        self.problem = problem
        self.outcome = outcome
        self.qe = quantization_error
        self.digests: dict[str, str] = {}
        self.sources: dict[str, dict[str, int]] = {}
        self.exact = None
        self.pruned = None
        self.pruned_engine = None

    def run(self, kind: str) -> float:
        problem = self.problem
        if kind == "relink":
            pipeline = problem.pipeline("pruned", linkage="average", engine=self.pruned_engine)
        else:
            pipeline = problem.pipeline(kind)
        started = time.perf_counter()
        result = pipeline.run(problem.suite)
        wall = time.perf_counter() - started
        if kind == "pruned":
            self.pruned_engine = pipeline.engine
        sources: dict[str, int] = {}
        for stats in result.run_report.stages:
            sources[stats.cache_source] = sources.get(stats.cache_source, 0) + 1
        self.sources[kind] = sources
        problem_text = self._problem(kind, result)
        self.outcome.op(problem_text is None, f"{kind}: {problem_text}")
        return wall

    def _problem(self, kind: str, result) -> str | None:
        hashed = digest(result)
        if self.digests.setdefault(kind, hashed) != hashed:
            return "result digest differs from the first op of the same kind"
        if kind == "exact":
            self.exact = result
            return None
        if kind == "pruned":
            self.pruned = result
            if self.exact is None:
                return None
            matrix = result.prepared_vectors.matrix
            qe_exact = self.qe(self.exact.som, matrix)
            qe_pruned = self.qe(result.som, matrix)
            if abs(qe_pruned - qe_exact) > QE_TOLERANCE * qe_exact:
                return f"pruned QE {qe_pruned:.6g} is not within 1% of exact {qe_exact:.6g}"
            if result.recommended_clusters != self.exact.recommended_clusters:
                return (
                    f"pruned recommends k={result.recommended_clusters}, "
                    f"exact k={self.exact.recommended_clusters}"
                )
            return None
        sources = {stats.stage: stats.cache_source for stats in result.run_report.stages}
        upstream = ("characterize", "preprocess", "reduce")
        if any(sources[stage] != "memory" for stage in upstream):
            return f"re-cut recomputed an upstream stage: {sources}"
        if result.positions != self.pruned.positions:
            return "re-cut positions differ from the pruned op's"
        return None


def _imports() -> float:
    """First import of numpy and of the analysis, timed once (detail only)."""
    started = time.perf_counter()
    import numpy  # noqa: F401

    import repro.analysis.pipeline  # noqa: F401
    import repro.synthetic  # noqa: F401

    return time.perf_counter() - started


def _setup(seed: int, outcome: common.Outcome) -> tuple[Runner, float]:
    """Generating the suite and one warm-up analysis, timed."""
    gc.collect()  # garbage of earlier ops must not decide the peak RSS
    started = time.perf_counter()
    runner = Runner(Problem(seed), outcome)
    runner.run("pruned")
    wall = time.perf_counter() - started
    runner.digests.clear()
    return runner, wall


def untraced(seed: int, seconds: float) -> tuple[common.Outcome, dict, dict]:
    outcome = common.Outcome()
    imports = _imports()
    clock = common.HostClock(with_numpy=True)
    walls: dict[str, list[float]] = {kind: [] for kind in ("setup",) + CYCLE}

    def add(kind: str, wall: float) -> None:
        walls[kind].append(wall * 1e3)
        clock.tick(KERNELS_PER_OP)

    runner, wall = _setup(seed, outcome)
    add("setup", wall)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if len(walls["setup"]) < SETUP_REPEATS:
            # Set-up repeats are spread over the window, so they see the
            # host as the ops do; the window's own length is kept.
            wall = _setup(seed, outcome)[1]
            add("setup", wall)
            deadline += wall
        for kind in CYCLE:
            add(kind, runner.run(kind))
    # Three or four ops of a kind are too few to trim, so this is their
    # mean, which spreads less from run to run than their median does.
    scale = clock.scale()
    metrics = {
        "setup_s": common.trimmed_mean(walls["setup"]) * scale / 1e3,
        "peak_rss_mb": common.self_peak_rss_mb(),
        "main_ms": common.trimmed_mean(walls["exact"]) * scale,
        "alt_ms": common.trimmed_mean(walls["pruned"]) * scale,
        "cached_ms": common.trimmed_mean(walls["relink"]) * scale,
    }
    detail = {
        "host_scale": scale,
        "reference_ms": clock.detail(),
        "setup_ms": common.summary(walls["setup"]),
        "imports_s": imports,
        "analysis_exact_ms": common.summary(walls["exact"]),
        "analysis_pruned_ms": common.summary(walls["pruned"]),
        "relink_ms": common.summary(walls["relink"]),
        "cache_sources_per_op": runner.sources,
        "recommended_clusters": runner.exact.recommended_clusters,
    }
    return outcome, metrics, detail


def traced(seed: int, seconds: float) -> tuple[common.Outcome, dict, dict]:
    import layers as layer_accounting

    outcome = common.Outcome()
    _imports()
    runner, _ = _setup(seed, outcome)
    wd = common.work_dir("big-suite")
    try:
        floors = common.import_floors(wd)
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    recorder = layer_accounting.LayerRecorder()
    plain: dict[str, list[float]] = {kind: [] for kind in CYCLE}
    traced_walls: dict[str, list[float]] = {kind: [] for kind in CYCLE}
    snapshots: dict[str, list[dict]] = {kind: [] for kind in CYCLE}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not snapshots["relink"]:
        for kind in CYCLE:
            plain[kind].append(runner.run(kind) * 1e3)
        recorder.install()
        try:
            for kind in CYCLE:
                recorder.reset()
                traced_walls[kind].append(runner.run(kind) * 1e3)
                snapshots[kind].append(recorder.snapshot())
        finally:
            recorder.uninstall()

    def self_ms(kind: str, layer: str) -> float:
        return common.median(
            [snap["self_seconds"].get(layer, 0.0) * 1e3 for snap in snapshots[kind]]
        )

    def count(kind: str, name: str) -> float:
        return common.median([snap["counts"].get(name, 0.0) for snap in snapshots[kind]])

    def share(kind: str, *layers: str) -> float:
        """Per cent of the untraced op median spent in these layers."""
        return sum(self_ms(kind, layer) for layer in layers) / walls[kind] * 100.0

    def both(layer: str) -> float:
        return common.median([self_ms("exact", layer), self_ms("pruned", layer)])

    walls = {kind: common.median(values) for kind, values in plain.items()}
    calls = count("pruned", "som.fit.pruned.bmu_calls")
    pairs = count("pruned", "som.fit.pruned.bmu_pair_total")
    layers: dict[str, float] = dict(floors)
    layers.update(
        {
            "characterization.characterize_ms": both("characterization.characterize"),
            "characterization.preprocess_ms": both("characterization.preprocess"),
            "som.fit_exact_ms": self_ms("exact", "som.fit.exact"),
            "som.fit_pruned_ms": self_ms("pruned", "som.fit.pruned"),
            "som.reduce_other_ms": both("som.reduce"),
            "som.epochs": count("exact", "som.fit.exact.epochs"),
            "som.bmu_candidates_per_epoch": count("pruned", "som.fit.pruned.bmu_candidates")
            / max(1.0, calls),
            "som.bmu_pruning_rate": count("pruned", "som.fit.pruned.bmu_pruned_pairs")
            / max(1.0, pairs),
            "som.bmu_fallbacks": count("pruned", "som.fit.pruned.bmu_fallbacks"),
            "som.bmu_distance_evals": count("exact", "som.fit.exact.exact_distance_evals"),
            "cluster.fit_ms": both("cluster.fit"),
            "cluster.merges": count("exact", "cluster.fit.merges"),
            "cluster.cells_scanned": count("exact", "cluster.fit.cells_scanned"),
            "core.score_cuts_ms": both("core.score_cuts"),
            "analysis.recommend_ms": both("analysis.recommend"),
            "engine.overhead_ms": both("engine.pipeline"),
            "som.share_exact_pct": share("exact", "som.fit.exact", "som.reduce"),
            "som.share_pruned_pct": share("pruned", "som.fit.pruned", "som.reduce"),
            "cluster.share_exact_pct": share("exact", "cluster.fit"),
            "cluster.share_pruned_pct": share("pruned", "cluster.fit"),
            "cluster.relink_fit_ms": self_ms("relink", "cluster.fit"),
        }
    )
    accounted = {
        kind: common.median(
            [sum(snap["self_seconds"].values()) * 1e3 for snap in snapshots[kind]]
        )
        for kind in CYCLE
    }
    traced_ms = {kind: common.median(values) for kind, values in traced_walls.items()}
    layers.update(common.accounting(walls, traced_ms, accounted))
    detail = {
        "untraced_ms": walls,
        "traced_ms": traced_ms,
        "accounted_ms": accounted,
        "layer_self_ms": {
            kind: {
                layer: self_ms(kind, layer) for layer in sorted(snapshots[kind][0]["self_seconds"])
            }
            for kind in CYCLE
        },
        "counts_per_op": {kind: snapshots[kind][0]["counts"] for kind in CYCLE},
        "cache_sources_per_op": runner.sources,
    }
    return outcome, layers, detail
