"""ASCII rendering of run-ledger records: tables, flames, diffs.

The ``repro-hmeans obs`` subcommands are thin wrappers over pure
functions here:

* :func:`render_runs_table` — tabular recent-run listing
  (``obs runs``);
* :func:`render_flame` — a depth-indented flame view of one run's
  stored span tree, falling back to its stage list when the run was
  not traced (``obs show``);
* :func:`render_diff` — per-stage wall-time and cache-source deltas
  between two runs, with percent-change highlighting and a regression
  verdict against a threshold (``obs diff``).

Everything takes plain ledger record dicts (see
:mod:`repro.obs.ledger`), so the functions are directly testable and
usable on hand-loaded JSONL.

The ``--json`` twins of the record-level views live here too
(:func:`runs_payload`, :func:`diff_payload`).
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Mapping

from repro.exceptions import ReproError
from repro.obs.ledger import run_source
from repro.viz.tables import format_table

__all__ = [
    "stage_walls",
    "render_runs_table",
    "render_flame",
    "render_diff",
    "render_event",
    "runs_payload",
    "diff_payload",
]


def stage_walls(record: Mapping[str, Any]) -> dict[str, float]:
    """Per-stage wall seconds of one run, summed over repeat executions.

    A sweep runs the engine once per variant, so the same stage name
    appears several times in ``record["stages"]``; the flame and diff
    views care about where the invocation's time went, so repeats sum.
    """
    walls: dict[str, float] = {}
    for stage in record.get("stages") or ():
        name = str(stage.get("stage", "?"))
        walls[name] = walls.get(name, 0.0) + float(stage.get("wall_seconds", 0.0))
    return walls


def _when(record: Mapping[str, Any]) -> str:
    stamp = record.get("timestamp_unix")
    if not isinstance(stamp, (int, float)) or stamp <= 0:
        return "?"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(stamp))


def _cache_summary(record: Mapping[str, Any]) -> str:
    sources = record.get("cache_sources") or {}
    if not sources:
        return "-"
    return ",".join(f"{k}:{v}" for k, v in sorted(sources.items()))


def _trace_prefix(record: Mapping[str, Any]) -> str:
    """A resolvable 12-hex prefix of the record's trace id (or ``-``)."""
    trace_id = record.get("trace_id")
    return str(trace_id)[:12] if trace_id else "-"


def _run_summary(record: Mapping[str, Any]) -> dict[str, Any]:
    """One run's listing fields: the ``obs runs`` row and JSON entry."""
    return {
        "run_id": str(record.get("run_id", "?")),
        "timestamp_unix": record.get("timestamp_unix"),
        "command": str(record.get("command", "?")),
        "source": run_source(str(record.get("command", "?"))),
        "args_fingerprint": str(record.get("args_fingerprint", "?")),
        "wall_seconds": float(record.get("wall_seconds", 0.0)),
        "exit_code": record.get("exit_code"),
        "stages": len(record.get("stages") or ()),
        "cache_sources": dict(
            sorted((record.get("cache_sources") or {}).items())
        ),
    }


def render_runs_table(
    records: Iterable[Mapping[str, Any]], *, limit: int = 15
) -> str:
    """The most recent ``limit`` runs, newest last, as an ASCII table."""
    rows = list(records)[-limit:]
    if not rows:
        raise ReproError("render_runs_table: no runs to list")
    table = format_table(
        [
            "run id",
            "when",
            "source",
            "command",
            "wall",
            "stages",
            "cache",
            "args",
            "trace",
        ],
        [
            (
                summary["run_id"],
                _when(summary),
                summary["source"],
                summary["command"],
                f"{summary['wall_seconds']:.3f}s",
                summary["stages"],
                _cache_summary(summary),
                summary["args_fingerprint"],
                _trace_prefix(r),
            )
            for r, summary in zip(rows, map(_run_summary, rows))
        ],
    )
    return table + f"\n{len(rows)} run(s) shown (newest last)"


def _flame_lines(
    span: Mapping[str, Any],
    depth: int,
    scale: float,
    width: int,
    lines: list[str],
    max_depth: int | None,
) -> None:
    duration = float(span["end_seconds"]) - float(span["start_seconds"])
    bar = "█" * max(1, round(duration * scale)) if duration > 0 else "·"
    lines.append(
        f"{'  ' * depth}{span.get('name', '?'):<{max(1, 28 - 2 * depth)}} "
        f"{duration * 1e3:9.1f}ms  {bar}"
    )
    if max_depth is not None and depth + 1 >= max_depth:
        return
    for child in span.get("children") or ():
        _flame_lines(child, depth + 1, scale, width, lines, max_depth)


def render_flame(
    record: Mapping[str, Any], *, width: int = 40, max_depth: int | None = 4
) -> str:
    """One run's stage timing tree as a depth-indented ASCII flame view.

    Bars scale to the longest root span.  Runs recorded without a
    trace (no ``--trace``) fall back to a flat per-stage bar chart
    built from the stored ``StageStats`` walls.  ``max_depth`` bounds
    the tree depth (``None`` renders everything, including e.g. one
    line per SOM epoch).
    """
    header = (
        f"run {record.get('run_id', '?')}  "
        f"command={record.get('command', '?')}  "
        f"wall={float(record.get('wall_seconds', 0.0)):.3f}s  "
        f"({_when(record)})"
    )
    if record.get("trace_id"):
        header += f"\ntrace_id {record['trace_id']}"
    trace = record.get("trace")
    if trace:
        longest = max(
            float(root["end_seconds"]) - float(root["start_seconds"])
            for root in trace
        )
        scale = width / longest if longest > 0 else 0.0
        lines: list[str] = [header, ""]
        for root in trace:
            _flame_lines(root, 0, scale, width, lines, max_depth)
        return "\n".join(lines)
    walls = stage_walls(record)
    if not walls:
        return header + "\n\n(no trace or stage data recorded for this run)"
    longest = max(walls.values())
    scale = width / longest if longest > 0 else 0.0
    lines = [header, "", "per-stage wall time (no trace stored; from StageStats):"]
    for name, wall in sorted(walls.items(), key=lambda kv: -kv[1]):
        bar = "█" * max(1, round(wall * scale)) if wall > 0 else "·"
        lines.append(f"  {name:<16} {wall * 1e3:9.1f}ms  {bar}")
    return "\n".join(lines)


def render_event(seq: int, name: str, data: Mapping[str, Any]) -> str:
    """One live-progress event (``obs tail``) as a single aligned line.

    Stage and SOM events get purpose-built layouts (wall/cache-source
    for stages, epoch/QE for SOM training); anything else falls back
    to sorted ``key=value`` pairs, so new event kinds render without a
    client upgrade.
    """
    if name == "stage.started":
        detail = f"{data.get('stage', '?')} ..."
    elif name == "stage.finished":
        wall = float(data.get("wall_seconds", 0.0))
        detail = (
            f"{data.get('stage', '?')} {wall * 1e3:9.1f}ms  "
            f"[{data.get('cache_source', '?')}]"
        )
    elif name == "som.epoch":
        parts = [f"epoch {data.get('epoch', '?')}"]
        if "wall_seconds" in data:
            parts.append(f"{float(data['wall_seconds']) * 1e3:9.1f}ms")
        if "quantization_error" in data:
            parts.append(f"qe={float(data['quantization_error']):.6f}")
        detail = "  ".join(parts)
    elif name == "som.qe":
        detail = (
            f"step {data.get('step', '?')}  "
            f"qe={float(data.get('value', 0.0)):.6f}"
        )
    elif name in ("run.started", "run.finished"):
        detail = " ".join(
            f"{key}={data[key]}" for key in sorted(data) if key != "run_id"
        )
        detail = f"{data.get('run_id', '?')} {detail}".rstrip()
    else:
        detail = " ".join(f"{key}={data[key]}" for key in sorted(data))
    return f"{seq:>5}  {name:<16} {detail}"


def _stage_deltas(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    threshold: float | None,
    caller: str,
) -> tuple[list[dict[str, Any]], list[str], float, float]:
    """Per-stage entries from run ``a`` to run ``b``, the regressed
    stage names, and both runs' stage totals.

    ``change_pct`` is ``None`` for an added or removed stage and
    ``inf`` when ``a`` took no time; ``status`` is ``added``,
    ``removed``, ``regression``, ``improved`` or ``unchanged``.
    """
    walls_a, walls_b = stage_walls(a), stage_walls(b)
    names = sorted(set(walls_a) | set(walls_b))
    if not names:
        raise ReproError(f"{caller}: neither run recorded stage data")
    stages = []
    regressed: list[str] = []
    for name in names:
        wall_a, wall_b = walls_a.get(name), walls_b.get(name)
        change: float | None = None
        if wall_a is None or wall_b is None:
            status = "added" if wall_a is None else "removed"
        else:
            if wall_a > 0:
                change = 100.0 * (wall_b - wall_a) / wall_a
            else:
                change = 0.0 if wall_b == 0 else float("inf")
            if threshold is not None and change > threshold:
                status = "regression"
                regressed.append(name)
            else:
                status = "improved" if change < 0 else "unchanged"
        stages.append(
            {
                "stage": name,
                "a_seconds": wall_a,
                "b_seconds": wall_b,
                "change_pct": change,
                "status": status,
            }
        )
    return stages, regressed, sum(walls_a.values()), sum(walls_b.values())


_DIFF_NOTES = {"regression": "<-- REGRESSION", "improved": "improved"}


def render_diff(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    *,
    threshold: float | None = None,
) -> tuple[str, bool]:
    """Per-stage deltas between two ledger runs.

    Returns ``(text, regressed)`` where ``regressed`` is True when any
    stage of ``b`` is slower than in ``a`` by more than ``threshold``
    percent (never True when ``threshold`` is ``None``).  Stages
    present in only one run are listed as added/removed and do not
    count as regressions.
    """
    stages, regressed, total_a, total_b = _stage_deltas(
        a, b, threshold, "render_diff"
    )

    def ms(seconds: float | None) -> str:
        return "-" if seconds is None else f"{seconds * 1e3:.1f}ms"

    rows = [
        (
            entry["stage"],
            ms(entry["a_seconds"]),
            ms(entry["b_seconds"]),
            entry["status"]
            if entry["change_pct"] is None
            else f"{entry['change_pct']:+.1f}%",
            _DIFF_NOTES.get(entry["status"], ""),
        )
        for entry in stages
    ]
    lines = [
        f"a: {a.get('run_id', '?')}  ({a.get('command', '?')}, "
        f"wall {float(a.get('wall_seconds', 0.0)):.3f}s, "
        f"cache {_cache_summary(a)})",
        f"b: {b.get('run_id', '?')}  ({b.get('command', '?')}, "
        f"wall {float(b.get('wall_seconds', 0.0)):.3f}s, "
        f"cache {_cache_summary(b)})",
        "",
        format_table(["stage", "a", "b", "delta", ""], rows),
    ]
    if total_a > 0:
        lines.append(
            f"\nstage total: {total_a * 1e3:.1f}ms -> {total_b * 1e3:.1f}ms "
            f"({100.0 * (total_b - total_a) / total_a:+.1f}%)"
        )
    if threshold is not None:
        verdict = (
            f"REGRESSED: {', '.join(regressed)} slower than "
            f"+{threshold:g}% threshold"
            if regressed
            else f"ok: no stage slower than +{threshold:g}% threshold"
        )
        lines.append(verdict)
    return "\n".join(lines), bool(regressed)


# ---------------------------------------------------------------------------
# --json payloads for the record-level views
# ---------------------------------------------------------------------------

_RENDER_SCHEMA_VERSION = 1


def runs_payload(
    records: Iterable[Mapping[str, Any]], *, limit: int = 15
) -> dict[str, Any]:
    """The schema-versioned ``obs runs --json`` payload (newest last)."""
    rows = list(records)[-limit:]
    if not rows:
        raise ReproError("runs_payload: no runs to list")
    return {
        "schema": _RENDER_SCHEMA_VERSION,
        "kind": "obs-runs",
        "runs": [_run_summary(r) for r in rows],
    }


def diff_payload(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    *,
    threshold: float | None = None,
) -> tuple[dict[str, Any], bool]:
    """The ``obs diff --json`` payload plus the regression verdict.

    Built from the same per-stage deltas as :func:`render_diff`, so the
    JSON is the machine-readable twin of the ASCII table.  An infinite
    change (``a`` took no time) is ``null`` in ``change_pct``.
    """
    stages, regressed, total_a, total_b = _stage_deltas(
        a, b, threshold, "diff_payload"
    )
    for entry in stages:
        if entry["change_pct"] == float("inf"):
            entry["change_pct"] = None
    payload = {
        "schema": _RENDER_SCHEMA_VERSION,
        "kind": "obs-diff",
        "a": _run_summary(a),
        "b": _run_summary(b),
        "threshold_pct": threshold,
        "stages": stages,
        "regressed": regressed,
        "total_a_seconds": total_a,
        "total_b_seconds": total_b,
    }
    return payload, bool(regressed)
