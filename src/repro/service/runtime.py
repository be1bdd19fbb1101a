"""The resident, transport-free core of the scoring service.

:class:`ServiceRuntime` owns everything that should stay warm across
requests and survives independently of any particular transport:

* one shared :class:`~repro.engine.PipelineEngine` (in-memory memo,
  optional read-through :class:`~repro.engine.diskcache.DiskCache`) —
  the reason a warm ``/score`` answers in microseconds while a cold
  CLI run pays the full SOM training;
* a :class:`~repro.obs.metrics.MetricsRegistry` that accumulates for
  the daemon's whole lifetime and backs ``GET /metricsz``;
* per-stage **compute counters** (an engine hook counting only
  ``cache_source == "compute"`` executions) — the observable the
  single-compute coalescing guarantee is tested against;
* the async job registry behind ``POST /analyze {"wait": false}`` and
  ``GET /runs/{id}``;
* ``service:<endpoint>`` run-ledger records for every request, so
  ``obs runs/trend/top/gate`` cover service traffic exactly like CLI
  and bench traffic.

Everything here is callable synchronously (tests and the benchmark
drive it directly); :mod:`repro.service.app` adds the asyncio
transport, coalescing and concurrency control on top.

Thread-safety: request handlers run on a thread pool, so the runtime
never touches the *ambient* recorder (a process-global that threads
would fight over) — ledger records are built explicitly from each
run's :class:`~repro.engine.executor.RunReport` instead.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Mapping, Sequence

from repro.analysis.pipeline import WorkloadAnalysisPipeline
from repro.analysis.stages import suite_fingerprint
from repro.core.partition import Partition
from repro.core.scoring import SuiteScorer, rank_machines
from repro.engine.executor import PipelineEngine, StageStats
from repro.engine.fingerprint import combine, fingerprint
from repro.exceptions import ReproError
from repro.obs.ledger import RunLedger, RunRecorder
from repro.obs.log import fmt_kv, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.service.events import EngineEventHook, RunEventStream
from repro.service.schemas import AnalyzeRequest, ScoreRequest
from repro.som.som import SOMConfig
from repro.workloads.suite import BenchmarkSuite

__all__ = [
    "SERVICE_SCHEMA_VERSION",
    "Job",
    "ServiceRuntime",
]

_log = get_logger("service")

SERVICE_SCHEMA_VERSION = 1

JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_DROPPED = "dropped"


@dataclass
class Job:
    """One async ``/analyze`` computation tracked by run id."""

    run_id: str
    endpoint: str
    request: dict[str, Any]
    status: str = JOB_RUNNING
    submitted_unix: float = field(default_factory=time.time)
    finished_unix: float | None = None
    result: dict[str, Any] | None = None
    error: str | None = None

    def payload(self) -> dict[str, Any]:
        """The ``GET /runs/{id}`` body for this job's current state."""
        payload: dict[str, Any] = {
            "schema": SERVICE_SCHEMA_VERSION,
            "kind": "service-run",
            "run_id": self.run_id,
            "status": self.status,
            "request": self.request,
            "submitted_unix": self.submitted_unix,
            "finished_unix": self.finished_unix,
        }
        if self.status == JOB_DONE:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload


class ServiceRuntime:
    """Warm engine + handlers + job registry + ledger recording.

    Parameters
    ----------
    cache_dir:
        Optional persistent stage-cache directory shared with CLI runs
        and future daemon restarts.
    ledger_path:
        When set, every request appends a ``service:<endpoint>`` record
        here (and async jobs stream their terminal state into it).
    suite:
        The benchmark suite ``/analyze`` characterizes; defaults to the
        paper's Table I suite.
    """

    def __init__(
        self,
        *,
        cache_dir: str | Path | None = None,
        ledger_path: str | Path | None = None,
        suite: BenchmarkSuite | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.registry = metrics if metrics is not None else MetricsRegistry()
        self.ledger = RunLedger(ledger_path) if ledger_path else None
        self.suite = suite if suite is not None else BenchmarkSuite.paper_suite()
        self.started_unix = time.time()
        self._lock = threading.Lock()
        self._compute_counts: dict[str, int] = {}
        self._jobs: dict[str, Job] = {}
        self._job_counter = 0
        self._streams: dict[str, RunEventStream] = {}
        # One engine for the daemon's lifetime: the warm substrate.
        # Metrics are pinned to the runtime registry; the tracer is
        # left unpinned (None) so each run resolves the *ambient*
        # tracer — a ContextVar, so concurrent handler threads that
        # install per-request tracers stay isolated while untraced
        # requests fall through to the free NullTracer path.  The
        # event hook fans stage lifecycle into the ambient per-run
        # stream (also a ContextVar; no stream → no cost).
        self.engine = PipelineEngine(
            disk_cache=self.cache_dir,
            metrics=self.registry,
            tracer=None,
            hooks=(self._count_compute, EngineEventHook()),
        )

    # -- observability -----------------------------------------------------

    def _count_compute(self, stats: StageStats) -> None:
        if stats.cache_source != "compute":
            return
        with self._lock:
            self._compute_counts[stats.stage] = (
                self._compute_counts.get(stats.stage, 0) + 1
            )

    @property
    def compute_counts(self) -> dict[str, int]:
        """How many times each stage *actually computed* (no cache hits).

        This is the single-compute observable: N coalesced identical
        ``/analyze`` requests must leave every stage at exactly 1.
        """
        with self._lock:
            return dict(self._compute_counts)

    def record_request(
        self,
        endpoint: str,
        args: Mapping[str, Any],
        *,
        wall_seconds: float,
        exit_code: int = 0,
        stages: Sequence[Mapping[str, Any]] | None = None,
        run_id: str | None = None,
        coalesced: bool = False,
        coalesced_with: str | None = None,
        error: str | None = None,
        trace_id: str | None = None,
    ) -> str | None:
        """Append one ``service:<endpoint>`` ledger record; returns its id.

        Stage entries come from the explicit response ``stages`` list
        (never the ambient recorder — handler threads would
        cross-contaminate a global).  Coalesced followers record with
        an empty stage list and a ``coalesced_with`` pointer at the
        leader's ledger record: the leader carries the computation, so
        fleet analytics never double-counts one engine run while
        ``obs show`` can still hop follower → leader.  ``trace_id``
        stamps the originating request identity so the record resolves
        by trace-id prefix (``obs show <prefix>``).
        """
        if self.ledger is None:
            return None
        recorder = RunRecorder(f"service:{endpoint}", dict(args))
        if stages and not coalesced:
            for stats in stages:
                recorder.add_stage(
                    SimpleNamespace(
                        stage=stats["stage"],
                        wall_seconds=stats["wall_seconds"],
                        cache_source=stats["cache_source"],
                        cache_hit=stats["cache_source"] != "compute",
                    )
                )
        record = recorder.finish(exit_code=exit_code, trace_id=trace_id)
        record["wall_seconds"] = wall_seconds
        record["coalesced"] = coalesced
        if coalesced_with is not None:
            record["coalesced_with"] = coalesced_with
        if error is not None:
            record["error"] = error
        if run_id is not None:
            record["run_id"] = run_id
        try:
            return self.ledger.append(record)
        except ReproError as exc:  # never fail a request over telemetry
            _log.warning(
                fmt_kv("service.ledger_error", endpoint=endpoint, error=str(exc))
            )
            return None

    # -- request keys (coalescing) ----------------------------------------

    def request_key(self, endpoint: str, canonical: Mapping[str, Any]) -> str:
        """The in-flight coalescing key for one validated request.

        Built from the same fingerprint machinery as the engine's
        stage keys: the canonical request (defaults explicit) combined
        with the suite's content fingerprint, so two requests share a
        key exactly when they would execute identical stage chains.
        """
        return combine(
            fingerprint((endpoint, tuple(sorted(_flatten(canonical))))),
            suite_fingerprint(self.suite),
        )

    # -- handlers ----------------------------------------------------------

    def score(self, request: ScoreRequest) -> dict[str, Any]:
        """Score measurements under an explicit partition (``POST /score``).

        Returns the full :class:`~repro.core.scoring.ScoreBreakdown`
        decomposition per machine plus the cross-machine ranking (and
        the paper's two-machine ratio when exactly two machines are
        measured).
        """
        partition = Partition(request.partition)
        columns = request.measurements_dict()
        scorer = SuiteScorer(partition, mean=request.mean)
        breakdowns = {}
        for machine, scores in columns.items():
            breakdown = scorer.breakdown(scores)
            breakdowns[machine] = {
                "score": breakdown.score,
                "mean_family": breakdown.mean_family,
                "num_clusters": breakdown.num_clusters,
                "cluster_scores": [
                    {"members": list(block), "score": value}
                    for block, value in sorted(breakdown.cluster_scores.items())
                ],
                "workload_scores": dict(sorted(breakdown.workload_scores.items())),
            }
        ranking = rank_machines(columns, partition, mean=request.mean)
        payload: dict[str, Any] = {
            "schema": SERVICE_SCHEMA_VERSION,
            "kind": "service-score",
            "mean": request.mean,
            "num_clusters": partition.num_blocks,
            "partition": [list(block) for block in partition.blocks],
            "breakdowns": breakdowns,
            "ranking": [[name, score] for name, score in ranking],
        }
        if len(columns) == 2:
            first, second = list(columns)
            payload["ratio"] = {
                "numerator": first,
                "denominator": second,
                "value": breakdowns[first]["score"] / breakdowns[second]["score"],
            }
        return payload

    def analyze(self, request: AnalyzeRequest) -> dict[str, Any]:
        """Run the full characterize→SOM→cluster→score→recommend graph.

        Executes on the warm shared engine, so repeated analyses replay
        memoized stages.  The returned ``result`` is exactly the
        archival :func:`~repro.serialization.analysis_result_to_dict`
        form — the same bytes the serial CLI ``export`` path produces.
        """
        # Local import: repro.serialization imports the pipeline module,
        # so a top-level import here would be circular via repro.service.
        from repro.serialization import analysis_result_to_dict

        pipeline = WorkloadAnalysisPipeline(
            characterization=request.characterization,
            machine=request.machine,
            som_config=SOMConfig(rows=8, columns=8, seed=request.seed),
            cluster_counts=request.cluster_counts,
            linkage=request.linkage,
            seed=request.seed,
            engine=self.engine,
            som_mode=request.som_mode,
        )
        result = pipeline.run(self.suite)
        report = result.run_report
        payload: dict[str, Any] = {
            "schema": SERVICE_SCHEMA_VERSION,
            "kind": "service-analyze",
            "request": request.canonical(),
            "result": analysis_result_to_dict(result),
            "report": {
                "stages": [
                    {
                        "stage": stats.stage,
                        "wall_seconds": stats.wall_seconds,
                        "cache_source": stats.cache_source,
                    }
                    for stats in report.stages
                ]
                if report is not None
                else [],
                "cache_hits": report.cache_hits if report is not None else 0,
                "cache_misses": report.cache_misses if report is not None else 0,
            },
        }
        return payload

    # -- async job registry ------------------------------------------------

    def create_job(self, endpoint: str, request: dict[str, Any]) -> Job:
        """Register a new running job under a fresh service run id.

        Every job gets a live :class:`RunEventStream` (the source for
        ``GET /events/{run_id}``), opened with a ``run.started`` event
        so even an immediate subscriber sees the submission.
        """
        with self._lock:
            self._job_counter += 1
            run_id = (
                f"svc-{int(self.started_unix)}-{self._job_counter:04d}"
            )
            job = Job(run_id=run_id, endpoint=endpoint, request=request)
            self._jobs[run_id] = job
            stream = RunEventStream(run_id)
            self._streams[run_id] = stream
        stream.emit("run.started", run_id=run_id, endpoint=endpoint)
        return job

    def job(self, run_id: str) -> Job | None:
        """Look one job up by run id (``None`` when unknown)."""
        with self._lock:
            return self._jobs.get(run_id)

    def jobs(self) -> list[Job]:
        """Every tracked job, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def finish_job(
        self,
        job: Job,
        *,
        status: str,
        result: dict[str, Any] | None = None,
        error: str | None = None,
    ) -> None:
        """Move a job to a terminal state (idempotent for drops).

        The job's event stream gets a final ``run.finished`` event
        mirroring the terminal ``GET /runs/{id}`` status and is then
        closed, so SSE followers drain and disconnect cleanly.
        """
        with self._lock:
            if job.status != JOB_RUNNING:
                return
            job.status = status
            job.finished_unix = time.time()
            job.result = result
            job.error = error
            stream = self._streams.get(job.run_id)
        if stream is not None:
            data: dict[str, Any] = {"run_id": job.run_id, "status": status}
            if error is not None:
                data["error"] = error
            stream.emit("run.finished", **data)
            stream.close()

    # -- live event streams ------------------------------------------------

    def stream(self, run_id: str) -> RunEventStream | None:
        """The live event stream for one job (``None`` when unknown)."""
        with self._lock:
            return self._streams.get(run_id)

    def close_streams(self) -> None:
        """Close every stream (drain: followers exit their read loops)."""
        with self._lock:
            streams = list(self._streams.values())
        for stream in streams:
            stream.close()

    # -- health ------------------------------------------------------------

    def health(self, *, draining: bool, in_flight: int) -> dict[str, Any]:
        """The ``GET /healthz`` body."""
        cache = self.engine.cache_info()
        disk = self.engine.disk_cache_info()
        jobs = self.jobs()
        return {
            "schema": SERVICE_SCHEMA_VERSION,
            "kind": "service-health",
            "status": "draining" if draining else "ok",
            "uptime_seconds": time.time() - self.started_unix,
            "in_flight": in_flight,
            "jobs": {
                "running": sum(1 for j in jobs if j.status == JOB_RUNNING),
                "done": sum(1 for j in jobs if j.status == JOB_DONE),
                "failed": sum(1 for j in jobs if j.status == JOB_FAILED),
                "dropped": sum(1 for j in jobs if j.status == JOB_DROPPED),
            },
            "engine_cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "entries": cache.entries,
            },
            "disk_cache": (
                {"hits": disk.hits, "misses": disk.misses, "entries": disk.entries}
                if disk is not None
                else None
            ),
            "compute_counts": self.compute_counts,
            "ledger": str(self.ledger.path) if self.ledger else None,
        }


def _flatten(value: Any, prefix: str = "") -> list[tuple[str, Any]]:
    """Deterministic (path, leaf) pairs of a canonical request mapping."""
    if isinstance(value, Mapping):
        pairs: list[tuple[str, Any]] = []
        for key in sorted(value):
            pairs.extend(_flatten(value[key], f"{prefix}.{key}"))
        return pairs
    if isinstance(value, (list, tuple)):
        pairs = []
        for index, item in enumerate(value):
            pairs.extend(_flatten(item, f"{prefix}[{index}]"))
        return pairs
    return [(prefix, value)]
