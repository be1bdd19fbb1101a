#!/usr/bin/env python
"""Gate CI on the committed benchmark payloads and/or the run ledger.

Five independent checks, composable in one invocation::

    python scripts/check_bench_regression.py \
        --baseline /tmp/baseline.json \
        --fresh results/BENCH_hotpaths.json [--strict-absolute] \
        --engine-caching results/BENCH_engine_caching.json \
        --service results/BENCH_service.json \
        --som-scaling results/BENCH_som_scaling.json \
        --ledger results/runs.jsonl --policy ci/slo.toml

``--baseline`` compares a fresh ``BENCH_hotpaths.json`` against the
committed baseline.  ``--engine-caching`` gates the scheduler bench:
the planned fan-out sweep must not be slower than serial beyond
tolerance (speedup >= 0.9 — the plan -> execute scheduler's whole
point is that parallelism never loses to serial, even on a 1-CPU
runner where the planner must pick serial), and the warm dedup sweep
must execute zero compute stages.  ``--service`` gates the
scoring-daemon bench: a warm ``/score`` p50 must stay at least 10x
faster than one cold ``repro-hmeans pipeline`` CLI invocation at the
same shape, the warm ``/analyze`` replay must beat the computing
first pass, and one live ``/events/{run_id}`` SSE subscriber must
cost the warm ``/score`` p50 at most 10%.  ``--som-scaling`` gates the reduce-stage scaling bench:
every swept shape must keep its pruned quantization error within 1%
of exact, and on a full-size run the pruned strategy must be at
least 4x faster than exact at the 1000x64 suite (smoke runs measure
shapes too small for the speedup claim, so it downgrades to a
warning there).  ``--ledger`` gates the run
ledger against an SLO policy file — the trailing-window trend logic
is **not** reimplemented here; it delegates wholesale to
:mod:`repro.obs.analytics` (the same code path as ``repro-hmeans obs
gate``), this script only translating the violation report into the
``[FAIL]`` findings format.  At least one of the three modes is
required.

The baseline comparison walks both payloads over every shared numeric
leaf:

* ``speedup`` keys (vectorized-vs-scalar ratios, largely
  machine-portable): **fail** when a fresh speedup collapses below
  half its baseline value, **warn** below 1/1.25 of it.
* ``*_seconds`` keys (absolute wall times, only meaningful on the same
  machine): warn above 1.25x the baseline; with ``--strict-absolute``
  (for same-machine refreshes) also **fail** above 2x.

When the two runs were taken at different sizes (``smoke`` flags
differ), neither seconds nor speedups are comparable — everything
downgrades to warnings so CI smoke runs stay informative without
flaking.  Exit status: 0 (clean or warnings only), 1 (regression).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# The SLO mode imports repro.obs.analytics; make the in-repo package
# importable no matter where the script is invoked from.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

FAIL_RATIO = 2.0
WARN_RATIO = 1.25
FANOUT_MIN_SPEEDUP = 0.9
SERVICE_MIN_SPEEDUP = 10.0
SERVICE_MAX_SSE_OVERHEAD_PCT = 10.0
SOM_SCALING_MIN_SPEEDUP = 4.0
SOM_SCALING_QE_TOLERANCE_PCT = 1.0
SOM_SCALING_GATED_SHAPE = "1000x64"


def _numeric_leaves(payload, prefix=""):
    """Flatten nested dicts to ``{dotted.path: float}`` numeric leaves."""
    leaves = {}
    for key, value in payload.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            leaves.update(_numeric_leaves(value, path))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            leaves[path] = float(value)
    return leaves


def _load(path: Path, *, bench: str):
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("bench") != bench:
        raise SystemExit(f"{path}: not a BENCH_{bench} payload")
    return payload


def check_engine_caching(payload: dict):
    """Yield ``(level, message)`` findings for the scheduler bench.

    The fan-out gate is the PR-6 acceptance criterion: with the
    planner choosing mode and worker count, a sweep at the planned
    settings must never lose to serial by more than 10% — on a 1-CPU
    runner the planner is expected to pick serial, which trivially
    satisfies the gate.
    """
    fanout = payload.get("fanout")
    if not isinstance(fanout, dict):
        yield ("fail", "fanout: section missing from engine-caching payload")
        return
    speedup = fanout.get("speedup")
    if not isinstance(speedup, (int, float)):
        yield ("fail", "fanout.speedup: missing or non-numeric")
    elif speedup < FANOUT_MIN_SPEEDUP:
        yield (
            "fail",
            f"fanout.speedup: {speedup:.2f} < {FANOUT_MIN_SPEEDUP} "
            f"(planned mode {fanout.get('planned_mode')!r} on "
            f"{fanout.get('available_cpus')} CPU(s) lost to serial)",
        )
    else:
        yield (
            "ok",
            f"fanout.speedup: {speedup:.2f} >= {FANOUT_MIN_SPEEDUP} "
            f"(planned mode {fanout.get('planned_mode')!r}, "
            f"{fanout.get('planned_workers')} worker(s))",
        )
    warm_computed = fanout.get("warm_computed_stages")
    if warm_computed is None:
        yield ("warn", "fanout.warm_computed_stages: missing")
    elif warm_computed != 0:
        yield (
            "fail",
            f"fanout.warm_computed_stages: {warm_computed} stage(s) "
            "recomputed on a fully warm cache (dedup/replay broken)",
        )
    else:
        yield ("ok", "fanout.warm_computed_stages: 0 (warm sweep replays)")


def check_service(payload: dict):
    """Yield ``(level, message)`` findings for the scoring-service bench.

    The gate is the PR-8 acceptance criterion: a warm ``/score``
    against the resident daemon must answer at least 10x faster (p50)
    than one cold ``repro-hmeans pipeline`` CLI invocation at the same
    SAR-A shape, and the warm ``/analyze`` replay must not recompute.
    """
    score = payload.get("score")
    if not isinstance(score, dict):
        yield ("fail", "score: section missing from service payload")
        return
    speedup = score.get("speedup_vs_cold_cli")
    if not isinstance(speedup, (int, float)):
        yield ("fail", "score.speedup_vs_cold_cli: missing or non-numeric")
    elif speedup < SERVICE_MIN_SPEEDUP:
        yield (
            "fail",
            f"score.speedup_vs_cold_cli: {speedup:.1f} < "
            f"{SERVICE_MIN_SPEEDUP:.0f} (warm /score p50 "
            f"{score.get('p50_seconds', float('nan')) * 1e3:.3f}ms lost its "
            "order-of-magnitude edge over a cold CLI run)",
        )
    else:
        yield (
            "ok",
            f"score.speedup_vs_cold_cli: {speedup:.0f}x >= "
            f"{SERVICE_MIN_SPEEDUP:.0f}x (p50 "
            f"{score.get('p50_seconds', float('nan')) * 1e3:.3f}ms over "
            f"{score.get('requests')} request(s))",
        )
    p50, p99 = score.get("p50_seconds"), score.get("p99_seconds")
    if isinstance(p50, (int, float)) and isinstance(p99, (int, float)):
        if p99 > p50 * 50:
            yield (
                "warn",
                f"score.p99_seconds: {p99 * 1e3:.3f}ms is >50x p50 "
                f"({p50 * 1e3:.3f}ms) — heavy tail",
            )
        else:
            yield (
                "ok",
                f"score latency tail: p99 {p99 * 1e3:.3f}ms within 50x of "
                f"p50 {p50 * 1e3:.3f}ms",
            )
    analyze = payload.get("analyze")
    if not isinstance(analyze, dict):
        yield ("warn", "analyze: section missing from service payload")
    elif not isinstance(analyze.get("speedup"), (int, float)):
        yield ("warn", "analyze.speedup: missing or non-numeric")
    elif analyze["speedup"] <= 1.0:
        yield (
            "fail",
            f"analyze.speedup: {analyze['speedup']:.2f} — the warm replay "
            "was not faster than the computing first pass (memo broken)",
        )
    else:
        yield (
            "ok",
            f"analyze.speedup: warm replay {analyze['speedup']:.1f}x faster "
            "than the first computing pass",
        )
    sse = payload.get("sse")
    if not isinstance(sse, dict):
        yield ("warn", "sse: section missing from service payload "
               "(pre-SSE bench run?)")
    elif not isinstance(sse.get("overhead_pct"), (int, float)):
        yield ("fail", "sse.overhead_pct: missing or non-numeric")
    elif sse["overhead_pct"] > SERVICE_MAX_SSE_OVERHEAD_PCT:
        yield (
            "fail",
            f"sse.overhead_pct: {sse['overhead_pct']:+.1f}% > "
            f"{SERVICE_MAX_SSE_OVERHEAD_PCT:.0f}% (one live "
            "/events subscriber taxes the warm /score p50: "
            f"{sse.get('p50_unsubscribed_seconds', float('nan')) * 1e3:.3f}ms "
            f"-> {sse.get('p50_subscribed_seconds', float('nan')) * 1e3:.3f}ms)",
        )
    else:
        yield (
            "ok",
            f"sse.overhead_pct: {sse['overhead_pct']:+.1f}% <= "
            f"{SERVICE_MAX_SSE_OVERHEAD_PCT:.0f}% with "
            f"{sse.get('subscribers')} live subscriber(s) (p50 "
            f"{sse.get('p50_unsubscribed_seconds', float('nan')) * 1e3:.3f}ms "
            f"-> {sse.get('p50_subscribed_seconds', float('nan')) * 1e3:.3f}ms)",
        )


def check_som_scaling(payload: dict):
    """Yield ``(level, message)`` findings for the reduce-scaling bench.

    The speedup gate is the PR-9 acceptance criterion: on a full-size
    run, the pruned BMU strategy must cut the 1000x64 batch fit by at
    least 4x against the exact single-core search.  The correctness
    gate (QE within 1% of exact) applies to every shape at every size,
    smoke included.
    """
    smoke = bool(payload.get("smoke"))
    shapes = payload.get("shapes")
    if not isinstance(shapes, dict) or not shapes:
        yield ("fail", "shapes: section missing from som-scaling payload")
        return
    for shape, stats in sorted(shapes.items()):
        if not isinstance(stats, dict):
            yield ("fail", f"shapes.{shape}: malformed entry")
            continue
        qe_delta = stats.get("qe_delta_pct")
        if not isinstance(qe_delta, (int, float)):
            yield ("fail", f"shapes.{shape}.qe_delta_pct: missing")
        elif qe_delta > SOM_SCALING_QE_TOLERANCE_PCT:
            yield (
                "fail",
                f"shapes.{shape}.qe_delta_pct: {qe_delta:.3f}% > "
                f"{SOM_SCALING_QE_TOLERANCE_PCT}% (pruned quantization "
                "error drifted from exact)",
            )
        else:
            yield (
                "ok",
                f"shapes.{shape}.qe_delta_pct: {qe_delta:.4f}% <= "
                f"{SOM_SCALING_QE_TOLERANCE_PCT}%",
            )
    gated = shapes.get(SOM_SCALING_GATED_SHAPE)
    speedup = gated.get("pruned_speedup") if isinstance(gated, dict) else None
    if not isinstance(speedup, (int, float)):
        level = "warn" if smoke else "fail"
        yield (
            level,
            f"shapes.{SOM_SCALING_GATED_SHAPE}.pruned_speedup: missing "
            + ("(smoke run measures smaller shapes)" if smoke else ""),
        )
    elif speedup < SOM_SCALING_MIN_SPEEDUP:
        yield (
            "warn" if smoke else "fail",
            f"shapes.{SOM_SCALING_GATED_SHAPE}.pruned_speedup: "
            f"{speedup:.2f}x < {SOM_SCALING_MIN_SPEEDUP:.0f}x"
            + (" (smoke-size shapes cannot carry the claim)" if smoke else ""),
        )
    else:
        yield (
            "ok",
            f"shapes.{SOM_SCALING_GATED_SHAPE}.pruned_speedup: "
            f"{speedup:.2f}x >= {SOM_SCALING_MIN_SPEEDUP:.0f}x "
            f"(exact {gated.get('exact_seconds', float('nan')) * 1e3:.1f}ms "
            f"-> pruned "
            f"{gated.get('pruned_seconds', float('nan')) * 1e3:.1f}ms)",
        )


def check_ledger_slo(ledger_path: Path, policy_path: Path | None, last):
    """Yield ``(level, message)`` findings from the SLO gate.

    All trailing-window statistics and budget evaluation happen inside
    :mod:`repro.obs.analytics` — this function only loads the frame,
    runs :func:`evaluate_gate`, and reformats the report.
    """
    from repro.exceptions import ReproError
    from repro.obs.analytics import LedgerFrame, SLOPolicy, evaluate_gate
    from repro.obs.ledger import RunLedger

    policy = (
        SLOPolicy.from_file(policy_path)
        if policy_path is not None
        else SLOPolicy()
    )
    try:
        frame = LedgerFrame.load(RunLedger(ledger_path), last=last)
        report = evaluate_gate(frame, policy)
    except ReproError as exc:
        yield ("warn", f"ledger SLO gate skipped: {exc}")
        return
    for label, reason in sorted(report.skipped.items()):
        yield ("warn", f"{label}: skipped ({reason})")
    for violation in report.violations:
        yield (
            "fail",
            f"{violation.group.label} {violation.stage} "
            f"[{violation.rule}]: {violation.detail}",
        )
    if report.ok:
        yield (
            "ok",
            f"ledger SLO gate: {len(report.checked)} stage series within "
            f"budget over {report.runs} run(s) ({policy.source})",
        )


def compare(baseline: dict, fresh: dict, *, strict_absolute: bool):
    """Yield ``(level, message)`` pairs; level is ``"fail"`` or ``"warn"``."""
    comparable = baseline.get("smoke") == fresh.get("smoke")
    if not comparable:
        yield (
            "warn",
            "baseline and fresh runs used different sizes "
            f"(smoke={baseline.get('smoke')} vs {fresh.get('smoke')}); "
            "all checks downgraded to warnings",
        )
    old_leaves = _numeric_leaves(baseline)
    new_leaves = _numeric_leaves(fresh)
    shared = sorted(set(old_leaves) & set(new_leaves))

    for path in shared:
        old, new = old_leaves[path], new_leaves[path]
        if old <= 0.0:
            continue
        if path.endswith("speedup"):
            ratio = old / new if new > 0.0 else float("inf")
            detail = f"{path}: speedup {old:.2f} -> {new:.2f}"
            if ratio > FAIL_RATIO:
                yield ("fail" if comparable else "warn", detail)
            elif ratio > WARN_RATIO:
                yield ("warn", detail)
        elif path.endswith("_seconds"):
            ratio = new / old
            detail = f"{path}: {old * 1e3:.2f}ms -> {new * 1e3:.2f}ms ({ratio:.2f}x)"
            if ratio > FAIL_RATIO and strict_absolute and comparable:
                yield ("fail", detail)
            elif ratio > WARN_RATIO:
                yield ("warn", detail)

    missing = sorted(set(old_leaves) - set(new_leaves))
    for path in missing:
        if path.endswith(("speedup", "_seconds")):
            yield ("warn", f"{path}: present in baseline, missing from fresh run")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        help="committed BENCH_hotpaths baseline to compare --fresh against",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        default=Path("results/BENCH_hotpaths.json"),
        help="fresh bench output (default: results/BENCH_hotpaths.json)",
    )
    parser.add_argument(
        "--strict-absolute",
        action="store_true",
        help="also fail (not just warn) on >2x absolute wall-time growth; "
        "use when baseline and fresh ran on the same machine",
    )
    parser.add_argument(
        "--engine-caching",
        type=Path,
        help="BENCH_engine_caching payload to gate (fan-out speedup >= "
        f"{FANOUT_MIN_SPEEDUP}, warm sweep computes 0 stages)",
    )
    parser.add_argument(
        "--service",
        type=Path,
        nargs="?",
        const=Path("results/BENCH_service.json"),
        help="BENCH_service payload to gate (warm /score p50 >= "
        f"{SERVICE_MIN_SPEEDUP:.0f}x faster than a cold CLI pipeline run, "
        "warm /analyze replay faster than the computing pass, SSE "
        f"subscriber overhead <= {SERVICE_MAX_SSE_OVERHEAD_PCT:.0f}%); "
        "default path: results/BENCH_service.json",
    )
    parser.add_argument(
        "--som-scaling",
        type=Path,
        nargs="?",
        const=Path("results/BENCH_som_scaling.json"),
        help="BENCH_som_scaling payload to gate (pruned QE within "
        f"{SOM_SCALING_QE_TOLERANCE_PCT}% of exact, "
        f"pruned >= {SOM_SCALING_MIN_SPEEDUP:.0f}x at "
        f"{SOM_SCALING_GATED_SHAPE} on full-size runs); "
        "default path: results/BENCH_som_scaling.json",
    )
    parser.add_argument(
        "--ledger",
        type=Path,
        help="run-ledger JSONL to gate against an SLO policy "
        "(delegates to repro.obs.analytics.evaluate_gate)",
    )
    parser.add_argument(
        "--policy",
        type=Path,
        help="SLO policy file (TOML or JSON) for --ledger; "
        "defaults to the built-in regression-only policy",
    )
    parser.add_argument(
        "--last",
        type=int,
        default=None,
        help="only consider the newest N ledger records for --ledger",
    )
    args = parser.parse_args(argv)
    if (
        args.baseline is None
        and args.engine_caching is None
        and args.service is None
        and args.som_scaling is None
        and args.ledger is None
    ):
        parser.error(
            "pass --baseline, --engine-caching, --service, --som-scaling, "
            "and/or --ledger"
        )

    findings = []
    if args.baseline is not None:
        baseline = _load(args.baseline, bench="hotpaths")
        fresh = _load(args.fresh, bench="hotpaths")
        findings.extend(
            compare(baseline, fresh, strict_absolute=args.strict_absolute)
        )
    if args.engine_caching is not None:
        payload = _load(args.engine_caching, bench="engine_caching")
        findings.extend(check_engine_caching(payload))
    if args.service is not None:
        payload = _load(args.service, bench="service")
        findings.extend(check_service(payload))
    if args.som_scaling is not None:
        payload = _load(args.som_scaling, bench="som_scaling")
        findings.extend(check_som_scaling(payload))
    if args.ledger is not None:
        findings.extend(check_ledger_slo(args.ledger, args.policy, args.last))

    failures = 0
    for level, message in findings:
        print(f"[{level.upper()}] {message}")
        failures += level == "fail"
    if not findings:
        print("bench regression check: all comparable timings within tolerance")
    if failures:
        print(f"bench regression check: {failures} gate failure(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
