"""Workload ``paper-cli``: fresh ``repro-hmeans`` processes on the paper suite.

A closed loop, one process at a time, in a fixed cycle: ``pipeline`` on
machine A, ``pipeline`` on machine B (no cache), ``sweep`` into an empty
cache directory (compute plus disk-cache writes) and ``sweep`` against a
warm cache directory (full replay from disk).  This is what an analyst pays
per command: interpreter start and imports, the sequential SOM, and for the
replay the disk cache alone.
"""

from __future__ import annotations

import json
import re
import shutil
import time
from pathlib import Path

import common

SETUP_REPEATS = 6
SETUP_EVERY = 2  # cycles between set-up repeats
TRACER_REPEATS = 5
STAGES_PER_VARIANT = 6


CYCLE = ("pipeline_a", "pipeline_b", "sweep_cold", "sweep_replay")


def _argv(kind: str, seed: int, wd: Path) -> list[str]:
    """Command line of one op; ``sweep_fill`` fills the warm cache in set-up."""
    commands = {
        "pipeline_a": ["pipeline", "--machine", "A"],
        "pipeline_b": ["pipeline", "--machine", "B"],
        "sweep_cold": ["sweep", "--cache-dir", str(wd / "cold")],
        "sweep_fill": ["sweep", "--cache-dir", str(wd / "warm")],
        "sweep_replay": ["sweep", "--cache-dir", str(wd / "warm")],
    }
    return ["--seed", str(seed)] + commands[kind]


def parse_sweep(stdout: str) -> list[tuple[str, ...]]:
    """Rows of the sweep table: linkage, HGM A, HGM B, ratio, k, stages cached."""
    rows = []
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 6 and re.fullmatch(r"\d+", fields[5]) and fields[0].isalpha():
            rows.append(tuple(fields))
    return rows


def parse_recommended(stdout: str) -> int | None:
    match = re.search(r"recommended cluster count: (\d+)", stdout)
    return int(match.group(1)) if match else None


def parse_engine_cache(stdout: str) -> dict[str, int]:
    """Stage cache_source tallies from the sweep's ``engine cache:`` line."""
    match = re.search(
        r"engine cache: (\d+) stage hit\(s\) \((\d+) from disk\), (\d+) miss", stdout
    )
    if match is None:
        return {}
    hits, disk, misses = (int(group) for group in match.groups())
    return {"memory": hits - disk, "disk": disk, "compute": misses}


class _Runner:
    """Runs cycle commands and checks each one's output."""

    def __init__(self, seed: int, wd: Path, outcome: common.Outcome) -> None:
        self.seed = seed
        self.wd = wd
        self.outcome = outcome
        self.env = common.child_env()
        self.reference: dict[str, bytes] = {}

    def run(self, kind: str, *, traced_out: Path | None = None) -> tuple[float, str]:
        if kind == "sweep_cold":
            shutil.rmtree(self.wd / "cold", ignore_errors=True)
        if traced_out is None:
            argv = common.CLI_PREFIX + _argv(kind, self.seed, self.wd)
            env = self.env
        else:
            argv = [common.CLI_PREFIX[0], str(common.HERE / "traced_main.py")]
            argv += _argv(kind, self.seed, self.wd)
            env = dict(self.env, PERFBENCH_LAYERS_OUT=str(traced_out))
        wall, done = common.timed_run(argv, cwd=self.wd, env=env)
        stdout = done.stdout.decode("utf-8", "replace")
        problem = self._problem(kind, done.returncode, done.stdout, stdout)
        self.outcome.op(problem is None, f"{kind}: {problem}")
        return wall, stdout

    def _problem(self, kind: str, code: int, raw: bytes, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        reference = self.reference.setdefault(kind, raw)
        if raw != reference:
            return "stdout differs from the first run of the same command"
        if kind == "sweep_replay":
            cold = self.reference.get("sweep_cold")
            rows = parse_sweep(stdout)
            if not rows or any(int(row[5]) != STAGES_PER_VARIANT for row in rows):
                return "a replayed stage did not read as cached"
            if cold is not None:
                cold_rows = parse_sweep(cold.decode("utf-8", "replace"))
                if [row[:5] for row in rows] != [row[:5] for row in cold_rows]:
                    return "replayed HGM/ratio/k columns differ from the cold sweep"
        return None


def _setup(runner: _Runner) -> float:
    """Warm-up run plus filling the warm cache directory, timed."""
    shutil.rmtree(runner.wd / "warm", ignore_errors=True)
    started = time.perf_counter()
    runner.run("pipeline_a")
    runner.run("sweep_fill")
    return time.perf_counter() - started


def _check_library(seed: int, outputs: dict[str, str], outcome: common.Outcome) -> None:
    """The CLI's recommended k equals an in-process library run."""
    from repro.analysis.pipeline import WorkloadAnalysisPipeline
    from repro.workloads.suite import BenchmarkSuite

    suite = BenchmarkSuite.paper_suite()
    for kind, machine in (("pipeline_a", "A"), ("pipeline_b", "B")):
        expected = WorkloadAnalysisPipeline(
            characterization="sar", machine=machine, seed=seed
        ).run(suite).recommended_clusters
        got = parse_recommended(outputs.get(kind, ""))
        outcome.op(got == expected, f"{kind}: CLI k={got}, library k={expected}")


def untraced(seed: int, seconds: float) -> tuple[common.Outcome, dict, dict]:
    outcome = common.Outcome()
    wd = common.work_dir("paper-cli")
    try:
        runner = _Runner(seed, wd, outcome)
        setup = [_setup(runner)]
        outputs: dict[str, str] = {}
        walls: dict[str, list[float]] = {kind: [] for kind in CYCLE}
        clock = common.HostClock(with_numpy=False)
        clock.tick()
        deadline = time.perf_counter() + seconds
        cycles = 0
        while time.perf_counter() < deadline:
            if cycles % SETUP_EVERY == 0 and len(setup) < SETUP_REPEATS:
                # Set-up repeats are spread over the window, so its median
                # sees the same host speed as the ops; the window's own
                # length is kept.
                setup.append(_setup(runner))
                clock.tick()
                deadline += setup[-1]
            cycles += 1
            for kind in CYCLE:
                wall, outputs[kind] = runner.run(kind)
                walls[kind].append(wall * 1e3)
                clock.tick()
        _check_library(seed, outputs, outcome)
        scale = clock.scale()
        metrics = {
            "setup_s": common.trimmed_mean(setup) * scale,
            "peak_rss_mb": common.children_peak_rss_mb(),
            "main_ms": common.trimmed_mean(walls["pipeline_a"] + walls["pipeline_b"]) * scale,
            "alt_ms": common.trimmed_mean(walls["sweep_cold"]) * scale,
            "cached_ms": common.trimmed_mean(walls["sweep_replay"]) * scale,
        }
        detail = {
            "host_scale": scale,
            "reference_ms": clock.detail(),
            "setup_s_samples": setup,
            "pipeline_ms": common.summary(walls["pipeline_a"] + walls["pipeline_b"]),
            "sweep_cold_ms": common.summary(walls["sweep_cold"]),
            "sweep_replay_ms": common.summary(walls["sweep_replay"]),
            "cache_sources_per_op": {
                "pipeline": {"compute": STAGES_PER_VARIANT},
                "sweep_cold": parse_engine_cache(outputs["sweep_cold"]),
                "sweep_replay": parse_engine_cache(outputs["sweep_replay"]),
            },
        }
        return outcome, metrics, detail
    finally:
        shutil.rmtree(wd, ignore_errors=True)


def _tracer_overhead_pct(seed: int) -> dict[str, float]:
    """Cost of the repo's own ``Tracer`` on ``pipeline.run`` and the sweep."""
    from repro.analysis.pipeline import WorkloadAnalysisPipeline
    from repro.analysis.sweep import PipelineVariant, run_pipeline_variants
    from repro.obs import Tracer, use_tracer
    from repro.workloads.suite import BenchmarkSuite

    suite = BenchmarkSuite.paper_suite()
    variants = [
        PipelineVariant(name=name, characterization="sar", machine="A", linkage=name, seed=seed)
        for name in ("complete", "average", "single", "ward", "centroid")
    ]
    calls = {
        "pipeline": lambda: WorkloadAnalysisPipeline(
            characterization="sar", machine="A", seed=seed
        ).run(suite),
        "sweep": lambda: run_pipeline_variants(variants, suite, workers=1),
    }
    walls: dict[str, list[float]] = {}
    for _ in range(TRACER_REPEATS):
        for name, call in calls.items():
            for traced in (False, True):
                started = time.perf_counter()
                if traced:
                    with use_tracer(Tracer()):
                        call()
                else:
                    call()
                key = f"{name}.{'traced' if traced else 'plain'}"
                walls.setdefault(key, []).append(time.perf_counter() - started)
    plain = sum(common.median(walls[f"{name}.plain"]) for name in calls)
    traced = sum(common.median(walls[f"{name}.traced"]) for name in calls)
    return {
        "obs.trace_overhead_pct": (traced / plain - 1.0) * 100.0,
        "detail": {key: common.median(values) * 1e3 for key, values in walls.items()},
    }


def traced(seed: int, seconds: float) -> tuple[common.Outcome, dict, dict]:
    outcome = common.Outcome()
    wd = common.work_dir("paper-cli")
    try:
        runner = _Runner(seed, wd, outcome)
        _setup(runner)
        floors = common.import_floors(wd)
        plain: dict[str, list[float]] = {kind: [] for kind in CYCLE}
        traced_walls: dict[str, list[float]] = {kind: [] for kind in CYCLE}
        snapshots: dict[str, list[dict]] = {kind: [] for kind in CYCLE}
        outputs: dict[str, str] = {}
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not snapshots["sweep_replay"]:
            for kind in CYCLE:
                wall, outputs[kind] = runner.run(kind)
                plain[kind].append(wall)
                dump = wd / "layers.json"
                wall, _ = runner.run(kind, traced_out=dump)
                traced_walls[kind].append(wall)
                snapshots[kind].append(json.loads(dump.read_text()))
        _check_library(seed, outputs, outcome)
        tracer = _tracer_overhead_pct(seed)

        def per_op(kind: str, layer: str, field: str = "self_seconds", scale: float = 1e3) -> float:
            return common.median([snap[field].get(layer, 0.0) * scale for snap in snapshots[kind]])

        pipeline_kinds = ("pipeline_a", "pipeline_b")

        def pipeline_median(layer: str, field: str = "self_seconds", scale: float = 1e3) -> float:
            return common.median([per_op(kind, layer, field, scale) for kind in pipeline_kinds])

        fit_ms = pipeline_median("som.fit.sequential")
        steps = pipeline_median("som.fit.sequential.steps", "counts", 1.0)
        layers: dict[str, float] = dict(floors)
        layers.update(
            {
                "cli.render_ms": pipeline_median("cli.main"),
                "engine.overhead_ms": pipeline_median("engine.pipeline"),
                "characterization.characterize_ms": pipeline_median("characterization.characterize"),
                "characterization.preprocess_ms": pipeline_median("characterization.preprocess"),
                "som.fit_ms": fit_ms,
                "som.reduce_other_ms": pipeline_median("som.reduce"),
                "som.steps": steps,
                "som.step_us": fit_ms * 1e3 / steps if steps else 0.0,
                "cluster.fit_ms": pipeline_median("cluster.fit"),
                "cluster.merges": pipeline_median("cluster.fit.merges", "counts", 1.0),
                "cluster.cells_scanned": pipeline_median("cluster.fit.cells_scanned", "counts", 1.0),
                "core.score_cuts_ms": pipeline_median("core.score_cuts"),
                "analysis.recommend_ms": pipeline_median("analysis.recommend"),
                "engine.disk_write_ms": per_op("sweep_cold", "engine.disk_write"),
                "engine.disk_stores": per_op("sweep_cold", "engine.disk_write.stores", "counts", 1.0),
                "engine.disk_misses": per_op("sweep_cold", "engine.disk_read.misses", "counts", 1.0),
                "engine.disk_read_ms": per_op("sweep_replay", "engine.disk_read"),
                "engine.disk_hits": per_op("sweep_replay", "engine.disk_read.hits", "counts", 1.0),
                "engine.plan_ms": common.median(
                    [per_op(kind, "engine.plan") for kind in ("sweep_cold", "sweep_replay")]
                ),
                "obs.trace_overhead_pct": tracer["obs.trace_overhead_pct"],
            }
        )
        replay_rows = parse_sweep(outputs["sweep_replay"])
        layers["engine.replay_hit_ratio"] = sum(int(row[5]) for row in replay_rows) / (
            STAGES_PER_VARIANT * max(1, len(replay_rows))
        )
        tallies = {
            "sweep_cold": parse_engine_cache(outputs["sweep_cold"]),
            "sweep_replay": parse_engine_cache(outputs["sweep_replay"]),
        }
        layers["engine.cold_sweep_computes"] = tallies["sweep_cold"].get("compute", 0)
        layers["engine.cold_sweep_memo_hits"] = tallies["sweep_cold"].get("memory", 0)
        layers["engine.replay_disk_hits"] = tallies["sweep_replay"].get("disk", 0)
        layers["engine.replay_memo_hits"] = tallies["sweep_replay"].get("memory", 0)

        # Accounting: a process's wall is interpreter start + imports + the
        # self times under cli.main; what is left is unaccounted.
        startup = floors["cli.interp_ms"] + floors["cli.import_ms"]
        accounted = {}
        plain_ms = {kind: common.median(plain[kind]) * 1e3 for kind in CYCLE}
        traced_ms = {kind: common.median(traced_walls[kind]) * 1e3 for kind in CYCLE}
        for kind in CYCLE:
            accounted[kind] = startup + common.median(
                [sum(snap["self_seconds"].values()) * 1e3 for snap in snapshots[kind]]
            )
        layers.update(common.accounting(plain_ms, traced_ms, accounted))
        detail = {
            "untraced_ms": plain_ms,
            "traced_ms": traced_ms,
            "accounted_ms": accounted,
            "layer_self_ms": {
                kind: {
                    layer: per_op(kind, layer)
                    for layer in sorted(snapshots[kind][0]["self_seconds"])
                }
                for kind in CYCLE
            },
            "counts_per_op": {kind: snapshots[kind][0]["counts"] for kind in CYCLE},
            "cache_sources_per_op": tallies,
            "repro_tracer_ms": tracer["detail"],
        }
        return outcome, layers, detail
    finally:
        shutil.rmtree(wd, ignore_errors=True)
