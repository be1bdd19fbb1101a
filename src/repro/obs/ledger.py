"""Persistent run ledger: one JSONL record per CLI or service run.

Telemetry used to evaporate at process exit — traces, metrics and
stage timings lived exactly as long as the run that produced them.
The ledger makes runs comparable *across* invocations: every recorded
run appends one schema-versioned JSON line to ``results/runs.jsonl``
(command, argument fingerprint, per-stage wall times, cache hit
sources, a metrics snapshot and — when tracing was on — the full span
tree), and the ``repro-hmeans obs`` subcommands read it back for
listing, flame views and regression diffs.

Recording is ambient, mirroring tracing and metrics: the CLI driver
opens a :class:`RunRecorder` for the invocation and installs it with
:func:`use_recorder`; :class:`~repro.engine.executor.PipelineEngine`
feeds every :class:`~repro.engine.executor.StageStats` to
:func:`current_recorder` as stages finish (the default
:data:`NULL_RECORDER` swallows them for free); at exit the CLI calls
:meth:`RunRecorder.finish` and :meth:`RunLedger.append` writes the
line atomically (single ``O_APPEND`` write), so concurrent runs never
interleave records.

Enable it with ``--ledger [FILE]`` on any subcommand or the
``REPRO_LEDGER`` environment variable; ``repro-hmeans serve`` honors
both for its per-request records.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.exceptions import ReproError
from repro.obs.context import current_context
from repro.obs.log import fmt_kv, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTracer, Tracer

__all__ = [
    "SCHEMA_VERSION",
    "new_run_id",
    "LEDGER_ENV",
    "DEFAULT_LEDGER_PATH",
    "SIZE_WARNING_BYTES",
    "CompactionResult",
    "RunLedger",
    "RunRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "current_recorder",
    "run_source",
    "set_recorder",
    "use_recorder",
    "ledger_path_from_env",
]

_log = get_logger("obs.ledger")

SCHEMA_VERSION = 1

LEDGER_ENV = "REPRO_LEDGER"

DEFAULT_LEDGER_PATH = "results/runs.jsonl"

# `obs runs` suggests `obs prune` once the ledger file passes this size;
# JSONL with embedded traces grows fast enough that an unbounded file
# eventually slows every windowed read.
SIZE_WARNING_BYTES = 5 * 1024 * 1024


def ledger_path_from_env() -> str | None:
    """The ``REPRO_LEDGER`` ledger path, or ``None`` when unset/empty."""
    return os.environ.get(LEDGER_ENV) or None


def run_source(command: str) -> str:
    """Classify a record's origin from its command prefix.

    Plain CLI invocations record their subcommand (``pipeline``,
    ``sweep``, ...) and the scoring daemon records
    ``service:<endpoint>``; older ledgers may also hold
    ``bench:<name>`` records of the former benchmark harness.  ``obs
    runs`` surfaces this as the ``source`` column.
    """
    if command.startswith("bench:"):
        return "bench"
    if command.startswith("service:"):
        return "service"
    return "cli"


def _args_fingerprint(args: Mapping[str, Any]) -> str:
    """Stable 12-hex-digit digest of an argument mapping."""
    canonical = json.dumps(args, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def new_run_id(command: str) -> str:
    """A readable, collision-resistant run id: timestamp + short hash."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime())
    digest = hashlib.sha256(
        f"{time.time_ns()}:{os.getpid()}:{command}".encode("utf-8")
    ).hexdigest()[:6]
    return f"{stamp}-{digest}"


class RunRecorder:
    """Collects one invocation's telemetry into a ledger record.

    Install with :func:`use_recorder` so the engine can feed stage
    stats ambiently, then :meth:`finish` to produce the JSON-safe
    record for :meth:`RunLedger.append`.
    """

    active = True

    def __init__(self, command: str, args: Mapping[str, Any] | None = None):
        self.command = command
        self.args = dict(args or {})
        self._started_unix = time.time()
        self._started = time.perf_counter()
        self._stages: list[dict[str, Any]] = []

    def add_stage(self, stats: Any) -> None:
        """Record one executed stage (duck-typed ``StageStats``)."""
        self._stages.append(
            {
                "stage": stats.stage,
                "wall_seconds": stats.wall_seconds,
                "cache_source": stats.cache_source,
                "cache_hit": stats.cache_hit,
            }
        )

    def extend(self, stages: Iterable[Mapping[str, Any]]) -> None:
        """Append stage records collected by another recorder.

        Sweeps run each variant under its own recorder (in a pool
        worker or in this process) and append its records here in
        variant order.
        """
        self._stages.extend(dict(stage) for stage in stages)

    @property
    def stages(self) -> tuple[dict[str, Any], ...]:
        """The stage records collected so far."""
        return tuple(self._stages)

    def finish(
        self,
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
        exit_code: int = 0,
        trace_id: str | None = None,
    ) -> dict[str, Any]:
        """The finished, JSON-safe ledger record for this invocation.

        ``trace_id`` pins the record to a request identity explicitly;
        when omitted, the ambient :class:`~repro.obs.context.TraceContext`
        (if any) supplies it — which is what lets
        ``obs show <trace-prefix>`` resolve the run a service response
        header pointed at.
        """
        metrics_dict = metrics.as_dict() if metrics is not None else {}
        stages = list(self._stages)
        sources: dict[str, int] = {}
        for stage in stages:
            source = stage["cache_source"]
            sources[source] = sources.get(source, 0) + 1
        trace = None
        if tracer is not None and getattr(tracer, "enabled", False):
            trace = [
                root.to_payload() for root in tracer.roots if root.finished
            ]
        if trace_id is None:
            context = current_context()
            if context is not None and context.sampled:
                trace_id = context.trace_id
        # Local import: repro.engine packages import this module at
        # load time, so a top-level import would be circular.
        from repro.engine.hostinfo import available_cpus

        return {
            "schema": SCHEMA_VERSION,
            "run_id": new_run_id(self.command),
            "timestamp_unix": self._started_unix,
            "command": self.command,
            "args": self.args,
            "args_fingerprint": _args_fingerprint(self.args),
            "pid": os.getpid(),
            "available_cpus": available_cpus(),
            "wall_seconds": time.perf_counter() - self._started,
            "exit_code": exit_code,
            "stages": stages,
            "cache_sources": sources,
            "metrics": metrics_dict,
            "trace": trace,
            "trace_id": trace_id,
        }


class NullRecorder:
    """Disabled recorder: :meth:`add_stage` is free and records nothing."""

    active = False

    def add_stage(self, stats: Any) -> None:
        """Discard the stage record."""


NULL_RECORDER = NullRecorder()

_current_recorder: RunRecorder | NullRecorder = NULL_RECORDER


def current_recorder() -> RunRecorder | NullRecorder:
    """The ambient recorder (:data:`NULL_RECORDER` unless installed)."""
    return _current_recorder


def set_recorder(
    recorder: RunRecorder | NullRecorder,
) -> RunRecorder | NullRecorder:
    """Install ``recorder`` as ambient; returns the previous one."""
    global _current_recorder
    previous = _current_recorder
    _current_recorder = recorder
    return previous


@contextlib.contextmanager
def use_recorder(
    recorder: RunRecorder | NullRecorder,
) -> Iterator[RunRecorder | NullRecorder]:
    """Install ``recorder`` for the duration of a ``with`` block."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


@dataclass(frozen=True)
class CompactionResult:
    """What :meth:`RunLedger.compact` kept, dropped, and reclaimed."""

    kept: int
    dropped: int
    bytes_before: int
    bytes_after: int


class RunLedger:
    """Append-only JSONL store of run records.

    One line per run, written with a single ``O_APPEND`` ``write`` so
    concurrent invocations over the same file never interleave.
    Corrupt lines (a torn write from a crash, manual edits) are
    skipped with a warning on read, never fatal.
    """

    def __init__(self, path: str | Path = DEFAULT_LEDGER_PATH) -> None:
        self.path = Path(path)

    def append(self, record: Mapping[str, Any]) -> str:
        """Append one record atomically; returns its ``run_id``."""
        run_id = str(record.get("run_id", ""))
        if not run_id:
            raise ReproError("RunLedger.append: record has no run_id")
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        if _log.isEnabledFor(20):  # INFO
            _log.info(
                fmt_kv(
                    "ledger.append",
                    path=str(self.path),
                    run_id=run_id,
                    command=record.get("command", "?"),
                )
            )
        return run_id

    def records(
        self,
        *,
        last: int | None = None,
        command: str | None = None,
    ) -> list[dict[str, Any]]:
        """Parseable records, oldest first (corrupt lines skipped).

        ``command`` keeps only records of that subcommand; ``last``
        then keeps the newest N of what survived.  A torn
        final line (a crash mid-append, though the single ``O_APPEND``
        write makes that a kill-during-write event) parses as corrupt
        and is skipped like any other damaged line.
        """
        if last is not None and last < 1:
            raise ReproError(f"RunLedger.records: last must be >= 1, got {last}")
        if not self.path.exists():
            raise ReproError(f"RunLedger: no ledger at {self.path}")
        records = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    _log.warning(
                        fmt_kv(
                            "ledger.corrupt_line",
                            path=str(self.path),
                            line=number,
                        )
                    )
                    continue
                if isinstance(record, dict) and record.get("run_id"):
                    records.append(record)
        if command is not None:
            records = [r for r in records if r.get("command") == command]
        if last is not None:
            records = records[-last:]
        return records

    def size_bytes(self) -> int:
        """The ledger file's current size (0 when it does not exist)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def compact(self, keep_last: int) -> "CompactionResult":
        """Rewrite the ledger keeping only the newest ``keep_last`` runs.

        The rewrite is atomic: the survivors are written to a tempfile
        in the ledger's directory, fsynced, and ``os.replace``d over
        the original — a reader or concurrent appender sees either the
        old file or the new one, never a half-written hybrid.  (An
        append racing the rename can land on the old inode and be
        lost; compaction is an operator action, run it when no run is
        recording.)  Corrupt lines are dropped as a side effect.
        """
        if keep_last < 1:
            raise ReproError(
                f"RunLedger.compact: keep_last must be >= 1, got {keep_last}"
            )
        records = self.records()
        bytes_before = self.size_bytes()
        kept = records[-keep_last:]
        fd, temp_path = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for record in kept:
                    handle.write(
                        json.dumps(record, separators=(",", ":")) + "\n"
                    )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp_path)
            raise
        result = CompactionResult(
            kept=len(kept),
            dropped=len(records) - len(kept),
            bytes_before=bytes_before,
            bytes_after=self.size_bytes(),
        )
        _log.info(
            fmt_kv(
                "ledger.compacted",
                path=str(self.path),
                kept=result.kept,
                dropped=result.dropped,
                bytes_before=result.bytes_before,
                bytes_after=result.bytes_after,
            )
        )
        return result

    def stage_costs(self, *, limit: int = 50) -> dict[str, float]:
        """Mean *computed* wall seconds per stage over recent runs.

        The empirical half of the scheduler's cost model: scans the
        newest ``limit`` records and averages ``wall_seconds`` of the
        stage entries that actually computed (``cache_source ==
        "compute"``) — cache hits would drag the estimate toward zero
        and metrics-derived entries (``cache_source is None``) cannot
        be attributed.  Stages never seen computing are absent; a
        missing or empty ledger yields ``{}`` so planners can always
        call this and fall back to static costs.
        """
        try:
            records = self.records()
        except ReproError:
            return {}
        totals: dict[str, tuple[float, int]] = {}
        for record in records[-max(1, limit):]:
            for stage in record.get("stages") or ():
                if not isinstance(stage, Mapping):
                    continue
                if stage.get("cache_source") != "compute":
                    continue
                name = stage.get("stage")
                try:
                    wall = float(stage.get("wall_seconds"))
                except (TypeError, ValueError):
                    continue
                if not isinstance(name, str) or wall < 0:
                    continue
                total, count = totals.get(name, (0.0, 0))
                totals[name] = (total + wall, count + 1)
        return {
            name: total / count for name, (total, count) in totals.items()
        }

    def find(self, ref: str) -> dict[str, Any]:
        """Resolve one run by reference.

        ``ref`` may be ``last``/``first``, an integer index into the
        ledger (``0`` oldest, ``-1`` latest), a ``run_id`` prefix, or
        a ``trace_id`` prefix (the hex id a service response header or
        ``traceparent`` carried) — either prefix must match exactly
        one record.
        """
        records = self.records()
        if not records:
            raise ReproError(f"RunLedger: {self.path} holds no runs")
        if ref == "last":
            return records[-1]
        if ref == "first":
            return records[0]
        try:
            index = int(ref)
        except ValueError:
            index = None
        if index is not None:
            try:
                return records[index]
            except IndexError:
                raise ReproError(
                    f"RunLedger: index {index} out of range "
                    f"({len(records)} run(s) in {self.path})"
                )
        matches = [r for r in records if str(r["run_id"]).startswith(ref)]
        if not matches:
            matches = [
                r
                for r in records
                if str(r.get("trace_id") or "").startswith(ref)
            ]
        if len(matches) == 1:
            return matches[0]
        known = ", ".join(str(r["run_id"]) for r in records[-5:])
        if not matches:
            raise ReproError(
                f"RunLedger: no run matching {ref!r}; recent ids: {known}"
            )
        raise ReproError(
            f"RunLedger: {ref!r} is ambiguous "
            f"({len(matches)} matches); recent ids: {known}"
        )

    def __repr__(self) -> str:
        return f"RunLedger({str(self.path)!r})"
