"""Command-line interface: regenerate the paper's tables and figures.

Installed as ``repro-hmeans``.  Subcommands:

* ``table3`` — the speedup table, measured through the simulator.
* ``table4`` / ``table5`` / ``table6`` — the hierarchical-geometric-
  mean tables from the recovered partitions, side by side with the
  published values.
* ``som`` — the workload-distribution SOM map (Figures 3/5/7).
* ``dendrogram`` — the clustering tree (Figures 4/6/8).
* ``pipeline`` — the full end-to-end analysis with recommendation
  (``--stats`` prints the engine's per-stage instrumentation;
  ``--cache-dir`` persists stage outputs so re-runs skip them;
  ``--som-mode batch`` trains the SOM with the deterministic batch
  rule, whose BMU search is always the bound-pruned one;
  ``--bmu-strategy pruned`` swaps only its update for the grouped,
  tolerance-bounded one, see ``docs/PERFORMANCE.md``).
* ``sweep`` — re-run the analysis across several linkage rules in one
  process, with unchanged upstream stages computed once and served
  from cache (see ``docs/SCHEDULING.md``): ``--dry-run`` prints the
  plan — per variant, the stages already on disk and those shared
  with an earlier variant — without executing, and ``--cache-dir``
  keeps one persistent stage cache for future runs.
* ``gaming`` — the redundancy-gaming demonstration.
* ``subset`` — cluster-driven benchmark subsetting (one representative
  per cluster).
* ``confidence`` — bootstrap confidence intervals for the suite scores.
* ``solve`` — rerun the partition-inference solver against a published
  table.
* ``obs`` — inspect the persistent run ledger: ``obs runs`` (recent
  runs), ``obs show RUN`` (ASCII flame view of one run's stage
  timings), ``obs diff A B`` (per-stage wall-time deltas, nonzero exit
  when a stage regresses past ``--threshold``), ``obs tail RUN`` (a
  live service run's progress events) and ``obs prune --keep N``
  (atomic ledger compaction).  ``obs runs/show/diff`` take ``--json``
  for schema-versioned, deterministic machine-readable output.

Every subcommand accepts the observability flags ``--trace FILE``
(Chrome ``trace_event`` JSON of the run, or JSONL when the file ends
in ``.jsonl``), ``--metrics FILE`` (Prometheus-style text dump),
``-v``/``-vv`` (INFO / DEBUG key=value logging on stderr) and
``--ledger [FILE]`` (append the run — stage walls, cache sources,
metrics, trace — to a persistent JSONL ledger; the ``REPRO_LEDGER``
environment variable enables the same thing).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.pipeline import WorkloadAnalysisPipeline
from repro.core.hierarchical import hierarchical_geometric_mean
from repro.core.means import geometric_mean
from repro.core.robustness import gaming_report
from repro.data.partitions import partition_chain
from repro.data.table3 import SPEEDUP_TABLE, speedups_for_machine
from repro.data.tables456 import hgm_table
from repro.exceptions import ReproError
from repro.obs import (
    DEFAULT_LEDGER_PATH,
    NULL_RECORDER,
    NULL_TRACER,
    MetricsRegistry,
    RunLedger,
    RunRecorder,
    Tracer,
    configure_logging,
    fmt_kv,
    ledger_path_from_env,
    new_context,
    use_context,
    use_metrics,
    use_recorder,
    use_tracer,
)
from repro.viz.ascii import render_dendrogram, render_som_map
from repro.viz.tables import format_hgm_table, format_speedup_table
from repro.workloads.execution import ExecutionSimulator
from repro.workloads.machines import MACHINE_A, MACHINE_B
from repro.workloads.speedup import speedup_table
from repro.workloads.suite import BenchmarkSuite

__all__ = ["main"]


def _cmd_table3(args: argparse.Namespace) -> str:
    simulator = ExecutionSimulator(seed=args.seed)
    measured = speedup_table(
        simulator, BenchmarkSuite.paper_suite(), [MACHINE_A, MACHINE_B], runs=10
    )
    return format_speedup_table(measured)


def _cmd_hgm_table(args: argparse.Namespace) -> str:
    name = f"table{args.table_number}"
    chain = partition_chain(name)
    measured = {}
    for clusters, partition in chain.items():
        measured[clusters] = (
            hierarchical_geometric_mean(speedups_for_machine("A"), partition),
            hierarchical_geometric_mean(speedups_for_machine("B"), partition),
        )
    plain = (
        geometric_mean(list(SPEEDUP_TABLE["A"].values())),
        geometric_mean(list(SPEEDUP_TABLE["B"].values())),
    )
    return format_hgm_table(measured, plain=plain, published=hgm_table(name))


def _build_pipeline(args: argparse.Namespace) -> WorkloadAnalysisPipeline:
    engine = None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        from repro.engine import PipelineEngine

        engine = PipelineEngine(disk_cache=cache_dir)
    som_mode = getattr(args, "som_mode", "sequential")
    bmu_strategy = getattr(args, "bmu_strategy", "exact")
    if bmu_strategy != "exact" and som_mode != "batch":
        raise ReproError(
            "--bmu-strategy pruned requires --som-mode batch (it picks "
            "the batch update's arithmetic; sequential training has none)"
        )
    # Only SAR counters are collected on a machine.
    machine = args.machine if args.characterization == "sar" else None
    return WorkloadAnalysisPipeline(
        characterization=args.characterization,
        machine=machine,
        seed=args.seed,
        engine=engine,
        som_mode=som_mode,
        som_bmu_strategy=bmu_strategy,
    )


def _cmd_som(args: argparse.Namespace) -> str:
    result = _build_pipeline(args).run(BenchmarkSuite.paper_suite())
    sources = {
        "methods": "Java method utilization",
        "micro": "microarchitecture-independent features",
    }
    source = sources.get(
        args.characterization, f"SAR counters, machine {args.machine}"
    )
    grid = result.som.grid
    return render_som_map(
        result.positions,
        grid.rows,
        grid.columns,
        title=f"Workload distribution ({source})",
    )


def _cmd_dendrogram(args: argparse.Namespace) -> str:
    result = _build_pipeline(args).run(BenchmarkSuite.paper_suite())
    return render_dendrogram(result.dendrogram)


def _cmd_pipeline(args: argparse.Namespace) -> str:
    result = _build_pipeline(args).run(BenchmarkSuite.paper_suite())
    measured = {
        cut.clusters: (cut.scores["A"], cut.scores["B"]) for cut in result.cuts
    }
    plain = (
        geometric_mean(list(SPEEDUP_TABLE["A"].values())),
        geometric_mean(list(SPEEDUP_TABLE["B"].values())),
    )
    lines = [
        format_hgm_table(measured, plain=plain),
        "",
        f"recommended cluster count: {result.recommended_clusters}",
    ]
    shared = result.shared_cells()
    if shared:
        lines.append("shared SOM cells (particularly similar workloads):")
        for cell, names in sorted(shared.items()):
            lines.append(f"  {cell}: {', '.join(names)}")
    if getattr(args, "stats", False) and result.run_report is not None:
        lines += ["", "per-stage engine instrumentation:"]
        lines.append(result.run_report.summary())
        share_line = _reduce_share_line(result.run_report)
        if share_line:
            lines.append(share_line)
        som_line = _som_stats_line(result)
        if som_line:
            lines.append(som_line)
    return "\n".join(lines)


def _reduce_share_line(report) -> str | None:
    """Reduce-stage share of total wall time, as a percentage.

    The SOM reduce stage dominates end-to-end pipeline cost; calling
    its share out directly means nobody has to divide raw per-stage
    milliseconds to see where the time went.
    """
    total = report.total_seconds
    stats = next((s for s in report.stages if s.stage == "reduce"), None)
    if stats is None or total <= 0.0:
        return None
    share = 100.0 * stats.wall_seconds / total
    return (
        f"  reduce stage share: {share:.1f}% of total wall time "
        f"({stats.wall_seconds * 1e3:.1f}ms of {total * 1e3:.1f}ms)"
    )


def _som_stats_line(result) -> str | None:
    """One-line SOM training cost summary for ``pipeline --stats``.

    The reduce stage dominates pipeline wall time; this surfaces its
    internals (epochs, quality trajectory endpoints) so that cost is
    no longer a black box in run reports.
    """
    from repro.som.quality import map_quality

    som, prepared = result.som, result.prepared_vectors
    if som is None or prepared is None or not som.is_trained:
        return None
    quality = map_quality(som, prepared.matrix)
    qe, te = quality.quantization_error, quality.topographic_error
    history = som.training_history
    trajectory = (
        f", QE trajectory {history[0][1]:.3f} -> {history[-1][1]:.3f} "
        f"over {len(history)} samples"
        if history
        else ""
    )
    pruning = ""
    stats = som.bmu_stats
    if stats and stats.get("calls"):
        scored = int(stats.get("candidates", 0)) + int(
            stats.get("exhaustive", 0)
        )
        per_epoch = scored / max(1, int(stats["calls"]))
        pruning = (
            f", BMU pruning rate {100.0 * stats.get('pruning_rate', 0.0):.1f}%"
            f" ({per_epoch:.0f} candidates/epoch exactly scored)"
        )
    return (
        f"  SOM: {som.epochs_trained} epochs, final quantization error "
        f"{qe:.3f}, topographic error {te:.3f}{trajectory}{pruning}"
    )


def _cmd_sweep(args: argparse.Namespace) -> str:
    from repro.analysis.sweep import (
        PipelineVariant,
        plan_pipeline_variants,
        run_pipeline_variants,
    )
    from repro.viz.tables import format_table

    linkages = [name.strip() for name in args.linkages.split(",") if name.strip()]
    if not linkages:
        raise ReproError("sweep: no linkage rules requested")
    if args.characterization in ("methods", "micro"):
        characterization, machine = args.characterization, None
    else:
        characterization, machine = "sar", args.machine
    # Every variant pins the CLI seed: a linkage sweep compares
    # linkages, so the characterization/SOM randomness stays fixed.
    variants = [
        PipelineVariant(
            name=linkage,
            characterization=characterization,
            machine=machine,
            linkage=linkage,
            seed=args.seed,
        )
        for linkage in linkages
    ]
    suite = BenchmarkSuite.paper_suite()
    if args.dry_run:
        return plan_pipeline_variants(
            variants, suite, cache_dir=args.cache_dir, base_seed=args.seed
        ).render()
    runs = run_pipeline_variants(
        variants, suite, cache_dir=args.cache_dir, base_seed=args.seed
    )
    rows = []
    hits = misses = disk = 0
    for run in runs:
        result = run.result
        cut = result.cut(args.clusters)
        report = result.run_report
        rows.append(
            (
                run.name,
                cut.scores["A"],
                cut.scores["B"],
                cut.ratio,
                result.recommended_clusters,
                report.cache_hits if report else 0,
            )
        )
        if report:
            hits += report.cache_hits
            misses += report.cache_misses
            disk += sum(1 for s in report.stages if s.cache_source == "disk")
    lines = [
        f"linkage sweep at k = {args.clusters} "
        f"({args.characterization} characterization):",
        format_table(
            ["Linkage", "HGM A", "HGM B", "ratio A/B", "recommended k", "stages cached"],
            rows,
        ),
        "",
        f"engine cache: {hits} stage hit(s) ({disk} from disk), "
        f"{misses} miss(es) across {len(runs)} runs — unchanged upstream "
        "stages computed once and reused",
    ]
    if args.cache_dir:
        lines.append(
            f"persistent stage cache: {args.cache_dir} (reused by future runs)"
        )
    return "\n".join(lines)


def _cmd_gaming(args: argparse.Namespace) -> str:
    scores = speedups_for_machine("A")
    partition = partition_chain("table4")[6]
    scimark = tuple(
        sorted(name for name in scores if name.startswith("SciMark2."))
    )
    report = gaming_report(scores, partition, scimark, args.factor)
    return "\n".join(
        [
            f"tuning the SciMark2 cluster by {args.factor:.2f}x:",
            f"  plain GM        : {report.plain_before:.3f} -> "
            f"{report.plain_after:.3f}  (gain {report.plain_gain:.3f}x)",
            f"  hierarchical GM : {report.hierarchical_before:.3f} -> "
            f"{report.hierarchical_after:.3f}  (gain {report.hierarchical_gain:.3f}x)",
            f"  gaming resistance: {report.gaming_resistance:.3f}x",
        ]
    )


def _cmd_report(args: argparse.Namespace) -> str:
    from repro.analysis.report import render_analysis_report

    suite = BenchmarkSuite.paper_suite()
    result = _build_pipeline(args).run(suite)
    scimark = tuple(
        w.name for w in suite if w.source_suite == "SciMark2"
    )
    return render_analysis_report(result, suspect_group=scimark)


def _cmd_export(args: argparse.Namespace) -> str:
    from repro.serialization import analysis_result_to_dict, save_json

    result = _build_pipeline(args).run(BenchmarkSuite.paper_suite())
    data = analysis_result_to_dict(result)
    save_json(data, args.output)
    return (
        f"wrote analysis ({result.characterization}, "
        f"{len(result.cuts)} cuts) to {args.output}"
    )


def _cmd_subset(args: argparse.Namespace) -> str:
    from repro.analysis.subsetting import subsetting_error
    from repro.data.partitions import partition_chain as chains

    scores = speedups_for_machine("A")
    partition = chains("table4")[args.clusters]
    report = subsetting_error(scores, partition)
    lines = [
        f"subsetting the 13-workload suite with the {args.clusters}-cluster "
        "machine-A partition:",
        f"  representatives ({len(report.representatives)}): "
        + ", ".join(report.representatives),
        f"  subset plain GM      : {report.subset_score:.3f}",
        f"  full hierarchical GM : {report.full_hierarchical_score:.3f}",
        f"  relative error       : {report.relative_error:.1%}",
        f"  measurement saved    : {report.reduction:.1%}",
    ]
    return "\n".join(lines)


def _cmd_confidence(args: argparse.Namespace) -> str:
    from repro.core.confidence import bootstrap_ratio, bootstrap_suite_score
    from repro.core.partition import Partition
    from repro.data.partitions import partition_chain as chains
    from repro.workloads.machines import REFERENCE_MACHINE

    suite = BenchmarkSuite.paper_suite()
    simulator = ExecutionSimulator(seed=args.seed)
    reference = simulator.measure_suite(suite, REFERENCE_MACHINE)
    on_a = simulator.measure_suite(suite, MACHINE_A)
    on_b = simulator.measure_suite(suite, MACHINE_B)
    singletons = Partition.singletons(suite.workload_names)
    clustered = chains("table4")[6]

    plain = bootstrap_suite_score(
        reference, on_a, singletons, resamples=args.resamples, seed=args.seed
    )
    hgm_ci = bootstrap_suite_score(
        reference, on_a, clustered, resamples=args.resamples, seed=args.seed
    )
    ratio = bootstrap_ratio(
        reference, on_a, on_b, clustered, resamples=args.resamples,
        seed=args.seed,
    )
    fmt = "{label:<28}: {ci.estimate:.3f}  [{ci.lower:.3f}, {ci.upper:.3f}]"
    return "\n".join(
        [
            "95% bootstrap intervals over the simulated protocol:",
            fmt.format(label="plain GM, machine A", ci=plain),
            fmt.format(label="6-cluster HGM, machine A", ci=hgm_ci),
            fmt.format(label="6-cluster HGM ratio A/B", ci=ratio),
        ]
    )


def _cmd_solve(args: argparse.Namespace) -> str:
    from repro.inference.partition_solver import (
        PartitionChainSolver,
        TableTarget,
    )

    table = hgm_table(f"table{args.table}")
    targets = [
        TableTarget(k, {"A": row.score_a, "B": row.score_b})
        for k, row in table.items()
    ]
    report = PartitionChainSolver(
        SPEEDUP_TABLE, targets, tolerance=args.tolerance
    ).solve()
    lines = [
        f"table{args.table}: {report.num_chains} dendrogram-consistent "
        f"chain(s) at tolerance {args.tolerance}",
        f"candidates per level: {dict(report.candidates_per_level)}",
    ]
    if report.num_chains:
        lines.append("canonical chain:")
        for k, partition in sorted(report.canonical_chain.items()):
            lines.append(f"  k={k}: {partition}")
    return "\n".join(lines)


def _resolve_ledger(args: argparse.Namespace) -> RunLedger:
    """The ledger an ``obs`` subcommand reads (flag, env, default)."""
    path = args.ledger or ledger_path_from_env() or DEFAULT_LEDGER_PATH
    return RunLedger(path)


def _cmd_obs(args: argparse.Namespace) -> tuple[str, int]:
    """Dispatch the ``obs`` subcommands (runs/show/diff/tail/prune)."""
    import json

    from repro.obs import SIZE_WARNING_BYTES
    from repro.obs.render import (
        diff_payload,
        render_diff,
        render_flame,
        render_runs_table,
        runs_payload,
    )

    if args.obs_command == "tail":
        return _obs_tail(args)

    ledger = _resolve_ledger(args)
    as_json = getattr(args, "json", False)

    def json_text(payload) -> str:
        # Sorted keys and a fixed indent keep ``--json`` output
        # byte-stable; main() adds the one trailing newline.
        return json.dumps(payload, indent=2, sort_keys=True)

    if args.obs_command == "runs":
        records = ledger.records()
        if as_json:
            return json_text(runs_payload(records, limit=args.limit)), 0
        text = render_runs_table(records, limit=args.limit)
        size = ledger.size_bytes()
        if size > SIZE_WARNING_BYTES:
            text += (
                f"\nwarning: ledger is {size / 1024 / 1024:.1f} MiB "
                f"(> {SIZE_WARNING_BYTES // 1024 // 1024} MiB); consider "
                "`obs prune --keep N` to compact it"
            )
        return text, 0
    if args.obs_command == "show":
        record = ledger.find(args.run)
        if as_json:
            return json_text(record), 0
        return (
            render_flame(
                record,
                width=args.width,
                max_depth=None if args.full else 4,
            ),
            0,
        )
    if args.obs_command == "diff":
        a, b = ledger.find(args.run_a), ledger.find(args.run_b)
        if as_json:
            payload, regressed = diff_payload(a, b, threshold=args.threshold)
            return json_text(payload), 1 if regressed else 0
        text, regressed = render_diff(a, b, threshold=args.threshold)
        return text, 1 if regressed else 0
    # obs prune
    result = ledger.compact(args.keep)
    return (
        f"pruned {ledger.path}: kept {result.kept} run(s), dropped "
        f"{result.dropped}, {result.bytes_before} -> {result.bytes_after} "
        "bytes (atomic rewrite)",
        0,
    )


def _obs_tail(args: argparse.Namespace) -> tuple[str, int]:
    """Stream one run's live SSE events from a daemon to stdout.

    Unlike the other ``obs`` views this reads the *live* daemon, not
    the ledger: each event prints (flushed) as it arrives, so a
    long-running async ``/analyze`` narrates its stages and SOM epochs
    in real time.  ``--follow`` keeps the subscription (heartbeats)
    after the run completes; Ctrl-C detaches cleanly.
    """
    from repro.obs.render import render_event
    from repro.service.client import ServiceClient

    client = ServiceClient(
        args.service_host, args.service_port, timeout=None
    )
    count, last = 0, args.after
    try:
        for event in client.events(
            args.run, after=args.after, follow=args.follow
        ):
            print(render_event(event.seq, event.name, event.data), flush=True)
            count, last = count + 1, event.seq
    except KeyboardInterrupt:
        pass
    except BrokenPipeError:
        # Downstream closed (e.g. `obs tail ... | head`): detach
        # quietly, exactly like any well-behaved line filter.  Stdout
        # is dead, so point it at devnull before main() prints.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return "", 0
    except (OSError, RuntimeError, ValueError) as exc:
        raise ReproError(f"obs tail: {exc}") from exc
    return f"stream ended: {count} event(s), last id {last}", 0


def _cmd_serve(args: argparse.Namespace) -> str:
    """Run the resident scoring daemon until SIGTERM/SIGINT drains it.

    The daemon does its own per-request ledger recording
    (``service:<endpoint>`` records), so ``main()`` deliberately skips
    the per-invocation recorder for this command; ``--ledger`` (or
    ``REPRO_LEDGER``) names the file those request records go to.
    With ``--trace``, each request's span tree is grafted under this
    invocation's ``cli.serve`` span, so ``main()`` writes one file
    holding both on exit.
    """
    import asyncio

    from repro.obs.metrics import current_metrics
    from repro.service import ScoringService, ServiceRuntime

    ledger_path = getattr(args, "ledger", None) or ledger_path_from_env()
    runtime = ServiceRuntime(
        cache_dir=args.cache_dir,
        ledger_path=ledger_path,
        metrics=current_metrics(),
    )
    service = ScoringService(
        runtime,
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        drain_grace=args.drain_grace,
        slow_request_ms=args.slow_request_ms,
        heartbeat_seconds=args.heartbeat_seconds,
    )

    async def _serve() -> None:
        await service.start()
        service.install_signal_handlers()
        # Printed (and flushed) before blocking so callers that bound
        # --port 0 can read the resolved address.
        print(
            f"serving on http://{service.host}:{service.port} "
            f"(max_concurrency={service.max_concurrency}, "
            f"cache_dir={runtime.cache_dir}, ledger={ledger_path})",
            flush=True,
        )
        await service.serve_forever()

    asyncio.run(_serve())
    return "drained; bye"


def _obs_parent() -> argparse.ArgumentParser:
    """Observability flags shared by every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a trace of the run: Chrome trace_event JSON "
        "(chrome://tracing), or JSONL when FILE ends in .jsonl",
    )
    group.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write a Prometheus-style text dump of run metrics",
    )
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="key=value logging on stderr (-v INFO, -vv DEBUG)",
    )
    group.add_argument(
        "--ledger",
        metavar="FILE",
        nargs="?",
        const=DEFAULT_LEDGER_PATH,
        default=None,
        help="append this run (stage walls, cache sources, metrics, "
        f"trace) to a persistent JSONL run ledger (default FILE: "
        f"{DEFAULT_LEDGER_PATH}); the REPRO_LEDGER environment "
        "variable enables the same recording",
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hmeans",
        description="Regenerate the tables and figures of the hierarchical-means paper.",
    )
    parser.add_argument("--seed", type=int, default=11, help="simulation seed")
    subparsers = parser.add_subparsers(dest="command", required=True)
    obs = _obs_parent()

    subparsers.add_parser(
        "table3", help="speedup table (Table III)", parents=[obs]
    )

    for number in (4, 5, 6):
        sub = subparsers.add_parser(
            f"table{number}",
            help=f"hierarchical geometric means (Table {'IV V VI'.split()[number - 4]})",
            parents=[obs],
        )
        sub.set_defaults(table_number=number)

    for name, help_text in (
        ("som", "workload-distribution SOM map (Figures 3/5/7)"),
        ("dendrogram", "clustering dendrogram (Figures 4/6/8)"),
        ("pipeline", "full end-to-end analysis"),
        ("report", "complete analysis report with redundancy diagnostics"),
        ("export", "run the pipeline and write the result as JSON"),
    ):
        sub = subparsers.add_parser(name, help=help_text, parents=[obs])
        sub.add_argument(
            "--characterization",
            choices=("sar", "methods", "micro"),
            default="sar",
            help="characteristic-vector source",
        )
        sub.add_argument(
            "--machine",
            choices=("A", "B"),
            default="A",
            help="machine for SAR collection",
        )
        if name == "export":
            sub.add_argument(
                "--output",
                default="analysis.json",
                help="path of the JSON file to write",
            )
        if name == "pipeline":
            sub.add_argument(
                "--stats",
                action="store_true",
                help="print per-stage wall time and cache hit/miss stats",
            )
            sub.add_argument(
                "--cache-dir",
                metavar="DIR",
                default=None,
                help="persistent stage cache directory; re-runs with the "
                "same configuration skip already-computed stages",
            )
            sub.add_argument(
                "--som-mode",
                choices=("sequential", "batch"),
                default="sequential",
                help="SOM training mode (batch is the deterministic "
                "Kohonen batch rule)",
            )
            sub.add_argument(
                "--bmu-strategy",
                choices=("exact", "pruned"),
                default="exact",
                help="batch SOM update arithmetic: 'exact' (default, "
                "bitwise the reference batch loop) or 'pruned' (grouped "
                "per-BMU update, within ~1e-13 of exact); both use the "
                "bound-pruned BMU search; requires --som-mode batch",
            )

    sweep = subparsers.add_parser(
        "sweep",
        help="linkage sweep on one shared engine (cached upstream stages)",
        parents=[obs],
    )
    sweep.add_argument(
        "--characterization",
        choices=("sar", "methods", "micro"),
        default="sar",
        help="characteristic-vector source",
    )
    sweep.add_argument(
        "--machine",
        choices=("A", "B"),
        default="A",
        help="machine for SAR collection",
    )
    sweep.add_argument(
        "--linkages",
        default="complete,average,single,ward,centroid",
        help="comma-separated linkage rules to sweep",
    )
    sweep.add_argument(
        "--clusters",
        type=int,
        default=6,
        help="cluster count whose scores the table shows",
    )
    sweep.add_argument(
        "--dry-run",
        action="store_true",
        help="print the sweep plan (stages already on disk, stages shared "
        "with an earlier variant) without executing anything",
    )
    sweep.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent stage cache reused by future runs",
    )

    gaming = subparsers.add_parser(
        "gaming", help="score-gaming resistance demonstration", parents=[obs]
    )
    gaming.add_argument(
        "--factor",
        type=float,
        default=1.5,
        help="improvement factor applied to the SciMark2 cluster",
    )

    subset = subparsers.add_parser(
        "subset", help="cluster-driven benchmark subsetting", parents=[obs]
    )
    subset.add_argument(
        "--clusters",
        type=int,
        choices=range(2, 9),
        default=6,
        help="which machine-A partition to subset with",
    )

    confidence = subparsers.add_parser(
        "confidence",
        help="bootstrap confidence intervals for suite scores",
        parents=[obs],
    )
    confidence.add_argument(
        "--resamples", type=int, default=400, help="bootstrap replicates"
    )

    solve = subparsers.add_parser(
        "solve",
        help="recover a table's cluster partitions from its scores",
        parents=[obs],
    )
    solve.add_argument(
        "--table", type=int, choices=(4, 5, 6), default=4,
        help="which published table to solve",
    )
    solve.add_argument(
        "--tolerance", type=float, default=0.008,
        help="score-match tolerance",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the resident scoring daemon (POST /score, POST /analyze, "
        "GET /runs/{id}, GET /events/{run_id}, GET /healthz, GET /metricsz)",
        parents=[obs],
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="interface to bind"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8311,
        help="TCP port (0 picks a free one; the bound address is printed "
        "before the daemon starts serving)",
    )
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent stage cache shared with CLI runs and across "
        "daemon restarts",
    )
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=4,
        metavar="N",
        help="worker threads executing requests (requests beyond N queue)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long SIGTERM waits for in-flight work before dropping it",
    )
    serve.add_argument(
        "--slow-request-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log a structured service.slow_request warning (with the "
        "request's trace_id) for any request at or above this wall time",
    )
    serve.add_argument(
        "--heartbeat-seconds",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="comment-heartbeat interval on quiet /events/{run_id} "
        "streams (keeps proxies from reaping idle subscriptions)",
    )

    obs_cmd = subparsers.add_parser(
        "obs",
        help="inspect the persistent run ledger "
        "(runs / show / diff / tail / prune)",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    def ledger_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--ledger",
            metavar="FILE",
            default=None,
            help="ledger file to read (default: $REPRO_LEDGER, then "
            f"{DEFAULT_LEDGER_PATH})",
        )

    def json_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--json",
            action="store_true",
            help="emit a schema-versioned JSON payload (deterministic "
            "key order) instead of the ASCII rendering",
        )

    tail = obs_sub.add_parser(
        "tail",
        help="stream one service run's live progress events (SSE) from a "
        "running daemon to stdout",
    )
    tail.add_argument("run", help="service run id (svc-..., from POST /analyze)")
    tail.add_argument(
        "--service-host",
        default="127.0.0.1",
        metavar="HOST",
        help="daemon host to subscribe to",
    )
    tail.add_argument(
        "--service-port",
        type=int,
        default=8311,
        metavar="PORT",
        help="daemon port to subscribe to",
    )
    tail.add_argument(
        "--follow",
        action="store_true",
        help="stay subscribed (heartbeating) after the run finishes",
    )
    tail.add_argument(
        "--after",
        type=int,
        default=0,
        metavar="SEQ",
        help="resume past event SEQ (sent as Last-Event-ID)",
    )

    runs = obs_sub.add_parser("runs", help="list recent recorded runs")
    ledger_flag(runs)
    json_flag(runs)
    runs.add_argument(
        "--limit", type=int, default=15, help="show at most N runs"
    )

    show = obs_sub.add_parser(
        "show", help="ASCII flame view of one run's stage timings"
    )
    ledger_flag(show)
    json_flag(show)
    show.add_argument(
        "run",
        help="run to show: run-id prefix, integer index (-1 latest), "
        "'last' or 'first'",
    )
    show.add_argument(
        "--width", type=int, default=40, help="bar width of the flame view"
    )
    show.add_argument(
        "--full",
        action="store_true",
        help="render the whole span tree (default stops at depth 4)",
    )

    diff = obs_sub.add_parser(
        "diff", help="per-stage wall-time deltas between two runs"
    )
    ledger_flag(diff)
    json_flag(diff)
    diff.add_argument("run_a", help="baseline run (prefix/index/'first')")
    diff.add_argument("run_b", help="candidate run (prefix/index/'last')")
    diff.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="PCT",
        help="exit 1 when any stage of RUN_B is slower than RUN_A by "
        "more than PCT percent",
    )

    prune = obs_sub.add_parser(
        "prune",
        help="compact the ledger to its newest N runs (atomic rewrite)",
    )
    ledger_flag(prune)
    prune.add_argument(
        "--keep",
        type=int,
        required=True,
        metavar="N",
        help="number of newest runs to keep",
    )
    return parser


_OBS_FLAGS = ("command", "trace", "metrics", "verbose", "ledger")


def _recordable_args(args: argparse.Namespace) -> dict[str, object]:
    """The subcommand's own arguments, minus the observability flags.

    This is what the ledger fingerprints: two runs with the same
    command and the same knobs compare apples-to-apples even when one
    was traced and the other was not.
    """
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in _OBS_FLAGS
    }


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "table3": _cmd_table3,
        "table4": _cmd_hgm_table,
        "table5": _cmd_hgm_table,
        "table6": _cmd_hgm_table,
        "som": _cmd_som,
        "dendrogram": _cmd_dendrogram,
        "pipeline": _cmd_pipeline,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "export": _cmd_export,
        "gaming": _cmd_gaming,
        "subset": _cmd_subset,
        "confidence": _cmd_confidence,
        "solve": _cmd_solve,
        "serve": _cmd_serve,
        "obs": _cmd_obs,
    }

    log = configure_logging(getattr(args, "verbose", 0))
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    # A real tracer only when requested: the no-op default keeps
    # instrumentation free on untraced runs.  Traced runs also get a
    # fresh TraceContext, so every span of the invocation carries one
    # trace_id the ledger record stores (`obs show <trace-prefix>` resolves
    # it).  Metrics always collect into a per-invocation registry so
    # --metrics dumps one run.
    tracer = Tracer() if trace_path else NULL_TRACER
    context = new_context() if trace_path else None
    registry = MetricsRegistry()
    # The run ledger (flag or REPRO_LEDGER) persists this invocation's
    # telemetry for `repro-hmeans obs`; ledger inspection commands are
    # not recorded, and neither is `serve` as an invocation — the
    # daemon writes its own per-request `service:<endpoint>` records.
    ledger_path = (
        getattr(args, "ledger", None) or ledger_path_from_env()
        if args.command not in ("obs", "serve")
        else None
    )
    recorder = (
        RunRecorder(args.command, _recordable_args(args))
        if ledger_path
        else NULL_RECORDER
    )

    output, code, errors = None, 0, []
    with (
        use_context(context),
        use_tracer(tracer),
        use_metrics(registry),
        use_recorder(recorder),
    ):
        try:
            with tracer.span(f"cli.{args.command}", command=args.command):
                output = handlers[args.command](args)
        except ReproError as error:
            errors.append(str(error))
        else:
            if isinstance(output, tuple):
                output, code = output

        # One epilogue for success and failure alike: the trace of a
        # failed run is the one most worth keeping, and an unwritable
        # --trace/--metrics path loses only that file — the ledger
        # still gets the run's record.
        if trace_path:
            try:
                tracer.write(trace_path)
            except OSError as error:
                errors.append(f"cannot write trace to {trace_path}: {error}")
            else:
                log.info(
                    fmt_kv(
                        "trace.written",
                        path=trace_path,
                        spans=sum(1 for _ in tracer.spans()),
                    )
                )
        if metrics_path:
            try:
                registry.write(metrics_path)
            except OSError as error:
                errors.append(f"cannot write metrics to {metrics_path}: {error}")
            else:
                log.info(fmt_kv("metrics.written", path=metrics_path))
        if ledger_path:
            try:
                run_id = RunLedger(ledger_path).append(
                    recorder.finish(
                        metrics=registry,
                        tracer=tracer,
                        exit_code=1 if errors else code,
                    )
                )
            except ReproError as error:
                errors.append(str(error))
            else:
                log.info(fmt_kv("ledger.recorded", run_id=run_id, path=ledger_path))

    if output is not None:
        try:
            print(output)
        except BrokenPipeError:
            # Downstream pager/`head` closed the pipe; not an error.
            sys.stderr.close()
    if errors:
        print(f"error: {'; '.join(errors)}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
