"""Plan-driven fan-out over independent pipeline variants.

A sweep — linkage rules, k grids, ablation matrices — is a set of
*independent* runs that differ in one knob.  Execution is split into
two phases:

1. **plan** — :class:`repro.engine.plan.SweepPlanner` predicts each
   variant's cache hits (stage keys precomputed via
   :func:`repro.engine.executor.precompute_stage_keys`, probed against
   the :class:`~repro.engine.diskcache.DiskCache` index), prices the
   work with ledger-fed stage costs, dedups variants whose fingerprint
   chains coincide, and decides serial vs parallel + worker count from
   :func:`~repro.engine.hostinfo.available_cpus`;
2. **execute** — :class:`SweepScheduler` carries the plan out: pool
   variants run on a fork-context
   :class:`concurrent.futures.ProcessPoolExecutor`, while duplicates
   and fully-cached variants replay in the parent against the shared
   cache, never occupying a worker.

The planner decides and the scheduler only executes: a caller that
wants a particular split builds the :class:`~repro.engine.plan.SweepPlan`
itself.

Every path makes the same guarantees:

* **deterministic seeds** — a variant without an explicit seed gets
  one derived from ``H(base_seed, index, name)``, the same value in
  serial and parallel mode, so the execution strategy can never change
  the numbers;
* **shared read-through cache** — workers build their engines over one
  :class:`~repro.engine.diskcache.DiskCache` directory, so common
  upstream stages computed by any process are reused by all later ones
  (and by future runs — the cache persists);
* **observability with cross-process propagation** — every variant
  (serial or parallel) runs under its own child
  :class:`~repro.obs.trace.Tracer` and
  :class:`~repro.obs.metrics.MetricsRegistry`; the child's finished
  span tree ships back through the pool as a payload and is grafted
  under the parent's ``fanout.run`` span with its *real* start/end
  timestamps and worker pid, and the child's metrics are merged into
  the ambient registry (counters sum, gauges last-write, histograms
  concatenate).  When a :class:`~repro.obs.ledger.RunRecorder` is
  installed, each variant's stage records ship back the same way and
  join it in variant order.  Serial and parallel runs therefore
  produce structurally identical traces, identical merged counter
  totals and identical ledger stage lists.

A lost worker fails the sweep loudly.  When a pool process dies — a
SIGKILL, an out-of-memory kill, an initializer that raises — the
scheduler raises an :class:`~repro.exceptions.EngineError` naming
every variant the pool lost.  It does not re-run them in the parent:
a variant that exhausted a worker's memory could take the parent down
too, and a quiet serial retry would hide the fault.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.engine.plan import SweepPlan
from repro.exceptions import EngineError
from repro.obs.context import TraceContext, current_context, use_context
from repro.obs.ledger import RunRecorder, current_recorder, use_recorder
from repro.obs.log import fmt_kv, get_logger
from repro.obs.metrics import MetricsRegistry, current_metrics, use_metrics
from repro.obs.trace import (
    NullTracer,
    Tracer,
    current_tracer,
    span_from_payload,
    use_tracer,
)

__all__ = [
    "Variant",
    "VariantOutcome",
    "SweepScheduler",
    "check_variants",
    "derive_seed",
    "derive_seeds",
    "fork_available",
]

_log = get_logger("engine.fanout")

TaskFn = Callable[[Mapping[str, Any], int], Any]


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def derive_seed(base_seed: int, index: int, name: str) -> int:
    """Deterministic per-variant seed: stable across runs and modes.

    Hash-derived (not ``base_seed + index``) so reordering or renaming
    variants changes seeds loudly instead of silently shifting them
    onto each other.
    """
    digest = hashlib.sha256(
        f"{base_seed}:{index}:{name}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big")


def derive_seeds(variants: Sequence[Any], base_seed: int) -> list[int]:
    """Each variant's effective seed: its own, or the derived default.

    The single source of truth for every sweep planner, so a plan's
    seeds always match what execution will use.  Accepts anything
    with ``name`` and ``seed`` attributes.
    """
    return [
        variant.seed
        if variant.seed is not None
        else derive_seed(base_seed, index, variant.name)
        for index, variant in enumerate(variants)
    ]


@dataclass(frozen=True)
class Variant:
    """One independent unit of a fan-out.

    ``params`` is handed to the task verbatim and must be picklable
    for parallel execution.  ``seed`` pins the variant's seed; leave
    ``None`` to have the executor derive one deterministically.
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int | None = None


@dataclass(frozen=True)
class VariantOutcome:
    """The product of one executed variant."""

    name: str
    seed: int
    value: Any
    wall_seconds: float
    worker_pid: int

    @property
    def in_parent(self) -> bool:
        """True when the variant ran in the parent process (serial mode)."""
        return self.worker_pid == os.getpid()


_InvokePayload = tuple[
    TaskFn, dict[str, Any], int, str, str, bool, bool, dict[str, Any] | None
]
# (value, wall, pid, span payload, metrics snapshot, stage records)
_InvokeResult = tuple[Any, float, int, Any, dict[str, Any], tuple[Any, ...]]


def _invoke(payload: _InvokePayload) -> _InvokeResult:
    """Pool worker body: run one task under child telemetry sinks.

    Module-level and picklable.  The task executes with a fresh
    ambient :class:`MetricsRegistry` (and, when the parent is tracing,
    a fresh child :class:`Tracer` whose root is the variant's
    ``fanout.variant`` span; when it is recording a ledger run, a fresh
    :class:`~repro.obs.ledger.RunRecorder` for the variant's stages).
    All ship back with the result so the parent can graft the real
    span tree, merge the metrics and append the stage records —
    identically in serial and parallel mode.

    The parent's :class:`~repro.obs.context.TraceContext` rides in the
    payload and is reinstalled before the first span opens, so every
    worker span carries the originating request's ``trace_id`` and the
    variant root records the parent span id it attaches under.
    """
    task, params, seed, name, mode, traced, recording, context_payload = payload
    context = (
        TraceContext.from_payload(context_payload)
        if context_payload is not None
        else None
    )
    child_metrics = MetricsRegistry()
    child_tracer = Tracer() if traced else None
    child_recorder = RunRecorder(name) if recording else None
    with contextlib.ExitStack() as stack:
        stack.enter_context(use_metrics(child_metrics))
        if child_recorder is not None:
            stack.enter_context(use_recorder(child_recorder))
        if context is not None:
            stack.enter_context(use_context(context))
        if child_tracer is not None:
            stack.enter_context(use_tracer(child_tracer))
            span = stack.enter_context(
                child_tracer.span(
                    "fanout.variant", variant=name, seed=seed, mode=mode
                )
            )
            if context is not None:
                span.set(parent_span_id=context.span_id)
        else:
            span = None
        started = time.perf_counter()
        value = task(params, seed)
        wall = time.perf_counter() - started
        if span is not None:
            span.set(wall_seconds=wall, worker_pid=os.getpid())
    span_payload = (
        child_tracer.roots[0].to_payload() if child_tracer is not None else None
    )
    stages = child_recorder.stages if child_recorder is not None else ()
    metrics = child_metrics.snapshot()
    return value, wall, os.getpid(), span_payload, metrics, stages


def check_variants(variants: Sequence[Any], caller: str) -> None:
    """Reject an empty sweep or one whose variant names repeat."""
    if not variants:
        raise EngineError(f"{caller}: no variants")
    names = [v.name for v in variants]
    if len(set(names)) != len(names):
        duplicated = sorted({n for n in names if names.count(n) > 1})
        raise EngineError(f"{caller}: duplicate variant names {duplicated}")


class SweepScheduler:
    """Executes a :class:`~repro.engine.plan.SweepPlan` over variants.

    The acting half of the plan/execute split: the plan says which
    variants deserve a pool worker (``pool_eligible``) and how many
    workers to fork; the scheduler forks exactly those, then replays
    duplicates and predicted-cached variants in the parent process —
    after the pool, so their fingerprints find a warm shared cache.
    Telemetry (spans grafted in variant order, metrics merged) is
    structurally identical however the plan splits the work.

    Parameters
    ----------
    task:
        Module-level callable ``task(params, seed) -> value``; must be
        picklable for parallel plans.
    initializer / initargs:
        Per-process setup, exactly as
        :class:`concurrent.futures.ProcessPoolExecutor` takes it.  Runs
        in every pool worker and — when any variant executes in the
        parent — once in the parent too, so both lifecycles match
        serial execution.
    tracer / metrics:
        Explicit observability sinks; default to the ambient ones.

    A task's own exception propagates unchanged, whichever process
    raised it.  A pool that loses a worker process (killed, out of
    memory, or its initializer raised) raises :class:`EngineError`
    naming the variants that never came back; they are not re-run in
    the parent, where the same fault could strike the caller.
    """

    def __init__(
        self,
        task: TaskFn,
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._task = task
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._tracer = tracer
        self._metrics = metrics

    def _run_pool(
        self,
        workers: int,
        payloads: dict[int, _InvokePayload],
        results: list[_InvokeResult | None],
    ) -> None:
        """Run ``payloads`` on a fork pool, filling ``results`` by index."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=self._initializer,
            initargs=self._initargs,
        ) as pool:
            try:
                # A broken pool refuses further submits and fails every
                # unfinished future; those variants are the lost ones.
                futures = {}
                with contextlib.suppress(BrokenProcessPool):
                    for index, payload in payloads.items():
                        futures[index] = pool.submit(_invoke, payload)
                for index, future in futures.items():
                    with contextlib.suppress(BrokenProcessPool):
                        results[index] = future.result()
            except BaseException:
                # A task raised: drop the variants not yet started.
                pool.shutdown(cancel_futures=True)
                raise
        lost = [payloads[i][3] for i in payloads if results[i] is None]
        if lost:
            raise EngineError(
                f"SweepScheduler.execute: a pool worker died (killed, out "
                f"of memory, or its initializer raised); lost variants {lost}"
            )

    def execute(
        self, plan: SweepPlan, variants: Sequence[Variant]
    ) -> list[VariantOutcome]:
        """Run ``variants`` as ``plan`` dictates; outcomes in variant order."""
        check_variants(variants, "SweepScheduler.execute")
        planned = {vp.name: vp for vp in plan.variants}
        missing = [v.name for v in variants if v.name not in planned]
        if missing or len(variants) != len(plan.variants):
            raise EngineError(
                f"SweepScheduler.execute: plan covers "
                f"{sorted(planned)} but got variants "
                f"{[v.name for v in variants]}"
            )

        parallel = plan.parallel
        if parallel and not fork_available():
            _log.warning(
                fmt_kv(
                    "fanout.no_fork",
                    requested_workers=plan.workers,
                    fallback="serial",
                )
            )
            parallel = False

        tracer = self._tracer if self._tracer is not None else current_tracer()
        metrics = (
            self._metrics if self._metrics is not None else current_metrics()
        )
        recorder = current_recorder()
        mode = "parallel" if parallel else "serial"
        workers = plan.workers if parallel else 1
        traced = bool(getattr(tracer, "enabled", False))
        context = current_context()
        context_payload = (
            context.to_payload()
            if context is not None and context.sampled
            else None
        )
        pooled = [
            parallel and planned[variant.name].pool_eligible
            for variant in variants
        ]
        payloads: list[_InvokePayload] = [
            (
                self._task,
                dict(variant.params),
                planned[variant.name].seed,
                variant.name,
                "parallel" if in_pool else "serial",
                traced,
                recorder.active,
                context_payload,
            )
            for variant, in_pool in zip(variants, pooled)
        ]
        started = time.perf_counter()
        with tracer.span(
            "fanout.run", variants=len(payloads), workers=workers, mode=mode
        ) as run_span:
            results: list[_InvokeResult | None] = [None] * len(payloads)
            if parallel:
                self._run_pool(
                    workers,
                    {i: payloads[i] for i, in_pool in enumerate(pooled) if in_pool},
                    results,
                )
            # Everything the pool did not take — all variants in serial
            # mode, duplicates and predicted-cached variants in
            # parallel mode — runs here, after the pool, so replays
            # land on the cache the workers just populated.
            parent_indices = [
                i for i, result in enumerate(results) if result is None
            ]
            if parent_indices and self._initializer is not None:
                self._initializer(*self._initargs)
            for index in parent_indices:
                results[index] = _invoke(payloads[index])

            outcomes = []
            for payload, result in zip(payloads, results):
                assert result is not None
                value, wall, pid, span_payload, snapshot, stages = result
                seed, name = payload[2], payload[3]
                # Graft the child's real span tree (true start/end
                # timestamps, worker pid) under fanout.run, fold its
                # metrics into the ambient registry and append its
                # stage records to the ambient recorder: the trace, the
                # counters and the ledger come out the same whether the
                # variant ran here or in a pool process.
                if span_payload is not None:
                    tracer.graft(span_from_payload(span_payload))
                metrics.merge(snapshot)
                if stages:
                    recorder.extend(stages)
                outcomes.append(
                    VariantOutcome(
                        name=name,
                        seed=seed,
                        value=value,
                        wall_seconds=wall,
                        worker_pid=pid,
                    )
                )
            run_span.set(wall_seconds=time.perf_counter() - started)

        metrics.counter("repro_fanout_variants_total").inc(len(outcomes))
        metrics.gauge("repro_fanout_workers").set(workers)
        metrics.gauge("repro_fanout_available_cpus").set(plan.cpus)
        if plan.deduped:
            metrics.counter("repro_fanout_deduped_total").inc(
                len(plan.deduped)
            )
        if plan.cached:
            metrics.counter("repro_fanout_cache_replays_total").inc(
                len(plan.cached)
            )
        for outcome in outcomes:
            metrics.histogram("repro_fanout_variant_seconds").observe(
                outcome.wall_seconds
            )
        if _log.isEnabledFor(20):  # INFO
            _log.info(
                fmt_kv(
                    "fanout.run",
                    variants=len(outcomes),
                    mode=mode,
                    workers=workers,
                    deduped=len(plan.deduped),
                    cached=len(plan.cached),
                    wall_s=time.perf_counter() - started,
                )
            )
        return outcomes
