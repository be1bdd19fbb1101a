"""Sweep planning: predict cost and cache hits before spawning anything.

The fan-out executor used to be a dumb fork pool: ``--workers 4``
meant four forks, even on one pinned CPU, even when every variant was
already sitting in the disk cache — which is how a 5-variant sweep
ended up 4x *slower* parallel than serial.  This module is the
thinking half of the fix, a two-phase split mirrored by
:class:`repro.engine.fanout.SweepScheduler` (the acting half):

* :class:`StageCostModel` — expected per-stage compute seconds, read
  from the run ledger's historical stage walls
  (:meth:`repro.obs.ledger.RunLedger.stage_costs`) with static
  fallbacks measured on the reference host;
* :class:`SweepPlanner` — turns a list of :class:`PlanEntry` (name,
  seed, precomputed stage cache keys from
  :func:`repro.engine.executor.precompute_stage_keys`) into a
  :class:`SweepPlan`: per-stage cache-hit predictions probed against
  the :class:`~repro.engine.diskcache.DiskCache` index, dedup of
  variants whose full fingerprint chains coincide, and a serial vs
  parallel decision from :func:`~repro.engine.hostinfo.available_cpus`
  plus the cost model.

Both estimates price what an engine really computes.  A serial run
uses one engine, so a stage key shared by several variants (the
characterize, preprocess and reduce stages of a linkage sweep) is
priced once.  A parallel run gives each worker its own engine and
hands variants out in turn, so each worker is charged every distinct
key its share needs, shared stages included, and the busiest worker
sets the estimate.

Plans are pure data: building one executes nothing, which is what
makes ``repro-hmeans sweep --dry-run`` free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.engine.diskcache import DiskCache
from repro.engine.fingerprint import combine
from repro.engine.hostinfo import available_cpus
from repro.exceptions import EngineError
from repro.obs.log import fmt_kv, get_logger

__all__ = [
    "DEFAULT_STAGE_COSTS",
    "StageCostModel",
    "StagePlan",
    "VariantPlan",
    "SweepPlan",
    "PlanEntry",
    "SweepPlanner",
]

_log = get_logger("engine.plan")

# Static per-stage cost floor (seconds): the stage walls, rounded up
# to at least 1 ms, of one SAR machine-A pipeline run on the paper's
# 8x8 map at 500 steps per sample, on a 1-CPU container.  SOM training
# dominates end to end; everything else is millisecond noise.  The
# ledger overrides these with live history whenever it has any.
DEFAULT_STAGE_COSTS: Mapping[str, float] = {
    "characterize": 0.010,
    "preprocess": 0.001,
    "reduce": 0.46,
    "cluster": 0.001,
    "score_cuts": 0.002,
    "recommend": 0.001,
}

# Cost of a stage the model has never seen anywhere.
DEFAULT_UNKNOWN_STAGE_SECONDS = 0.05

# Replaying one stage from the disk cache: read + deserialize.
CACHE_HIT_SECONDS = 0.004

# Forking one pool worker and running its initializer.
WORKER_SPAWN_SECONDS = 0.15

# Shipping one variant's params in and its pickled result out.
VARIANT_IPC_SECONDS = 0.05


def _marginal_seconds(variants: Sequence["VariantPlan"]) -> list[float]:
    """Each variant's predicted seconds on one engine, in plan order.

    One engine computes a stage key once and replays it from its memo
    for every later variant that shares it, so a key is priced at the
    first variant that computes it and later variants add only their
    unseen keys.  Replayed and deduplicated variants cost
    :data:`CACHE_HIT_SECONDS` per stage.
    """
    seen: set[str] = set()
    costs = []
    for variant in variants:
        if not variant.pool_eligible:
            costs.append(variant.est_seconds)
            continue
        costs.append(
            sum(
                stage.est_seconds
                for stage in variant.stages
                if stage.key not in seen
            )
        )
        seen.update(stage.key for stage in variant.stages)
    return costs


class StageCostModel:
    """Expected compute seconds per stage: ledger history over statics.

    Resolution order per stage: measured mean from the ledger, then
    the static fallback table, then
    :data:`DEFAULT_UNKNOWN_STAGE_SECONDS`.  :meth:`source` reports
    which tier answered, so plan renderings can say where an estimate
    came from.
    """

    def __init__(
        self,
        *,
        measured: Mapping[str, float] | None = None,
        fallbacks: Mapping[str, float] = DEFAULT_STAGE_COSTS,
        default_seconds: float = DEFAULT_UNKNOWN_STAGE_SECONDS,
    ) -> None:
        self._measured = dict(measured or {})
        self._fallbacks = dict(fallbacks)
        self._default = float(default_seconds)

    @classmethod
    def from_ledger(
        cls, ledger_path: str | None, *, limit: int = 50
    ) -> "StageCostModel":
        """A model fed by the ledger at ``ledger_path`` (``None`` → statics)."""
        measured: Mapping[str, float] = {}
        if ledger_path:
            from repro.obs.ledger import RunLedger

            measured = RunLedger(ledger_path).stage_costs(limit=limit)
        return cls(measured=measured)

    @property
    def measured(self) -> Mapping[str, float]:
        """The ledger-fed per-stage means this model holds."""
        return dict(self._measured)

    def cost(self, stage: str) -> float:
        """Expected compute seconds for one execution of ``stage``."""
        if stage in self._measured:
            return self._measured[stage]
        return self._fallbacks.get(stage, self._default)

    def source(self, stage: str) -> str:
        """Which tier priced ``stage``: ``ledger``/``static``/``default``."""
        if stage in self._measured:
            return "ledger"
        if stage in self._fallbacks:
            return "static"
        return "default"


@dataclass(frozen=True)
class StagePlan:
    """One stage of one variant, as the planner predicts it.

    ``predicted`` is ``"disk"`` when the stage's cache key is already
    in the disk-cache index, else ``"compute"`` — a hint, not a
    promise (entries can be evicted or corrupt by execution time).
    ``est_seconds`` prices the predicted path.
    """

    stage: str
    key: str
    predicted: str
    est_seconds: float


@dataclass(frozen=True)
class VariantPlan:
    """One variant's predicted execution: stage chain + dedup verdict.

    ``fingerprint`` hashes the full stage-key chain; two variants with
    equal fingerprints perform byte-for-byte the same work, so every
    one after the first is marked ``dedup_of`` the first and replays
    from the shared cache instead of occupying a worker.
    """

    name: str
    seed: int
    stages: tuple[StagePlan, ...] = ()
    fingerprint: str | None = None
    dedup_of: str | None = None

    @property
    def est_seconds(self) -> float:
        """Predicted wall seconds for this variant as planned."""
        if self.dedup_of is not None or self.fully_cached:
            return CACHE_HIT_SECONDS * len(self.stages)
        return sum(plan.est_seconds for plan in self.stages)

    @property
    def est_compute_seconds(self) -> float:
        """Predicted seconds of actual computation (cache hits are ~free)."""
        return sum(
            plan.est_seconds
            for plan in self.stages
            if plan.predicted == "compute"
        )

    @property
    def fully_cached(self) -> bool:
        """Every stage predicted to come off disk — nothing to compute."""
        return bool(self.stages) and all(
            plan.predicted == "disk" for plan in self.stages
        )

    @property
    def pool_eligible(self) -> bool:
        """Worth a worker: not a duplicate, not already fully cached."""
        return self.dedup_of is None and not self.fully_cached


@dataclass(frozen=True)
class SweepPlan:
    """The scheduler's contract: who runs where, and why.

    ``mode`` is the planner's verdict (``"serial"``/``"parallel"``)
    and ``workers`` the pool size a parallel execution would use
    (1 when serial).  ``est_serial_seconds`` vs
    ``est_parallel_seconds`` is the comparison that decided, under
    ``cpus`` available CPUs.  ``clamp_reason`` is non-``None`` when an
    explicit worker request was reduced.
    """

    variants: tuple[VariantPlan, ...]
    requested_workers: int | str | None
    workers: int
    mode: str
    cpus: int
    est_serial_seconds: float
    est_parallel_seconds: float
    clamp_reason: str | None = None
    cost_sources: Mapping[str, str] = field(default_factory=dict)

    @property
    def parallel(self) -> bool:
        """True when the plan calls for a fork pool."""
        return self.mode == "parallel"

    @property
    def pool_variants(self) -> tuple[VariantPlan, ...]:
        """Variants a parallel execution would hand to the pool."""
        return tuple(v for v in self.variants if v.pool_eligible)

    @property
    def deduped(self) -> tuple[VariantPlan, ...]:
        """Variants elided as duplicates of an earlier fingerprint."""
        return tuple(v for v in self.variants if v.dedup_of is not None)

    @property
    def cached(self) -> tuple[VariantPlan, ...]:
        """Variants predicted to replay fully from the disk cache."""
        return tuple(
            v
            for v in self.variants
            if v.dedup_of is None and v.fully_cached
        )

    @property
    def marginal_seconds(self) -> tuple[float, ...]:
        """Each variant's share of ``est_serial_seconds``, in plan order."""
        return tuple(_marginal_seconds(self.variants))

    def render(self) -> str:
        """Human-readable plan table (the ``sweep --dry-run`` output).

        Each row's ``est`` is the variant's marginal serial cost, so
        the rows add up to the ``est serial`` line.
        """
        lines = [
            f"sweep plan: {len(self.variants)} variant(s), "
            f"{self.cpus} CPU(s) available, mode={self.mode}, "
            f"workers={self.workers}"
            + (
                f" (requested {self.requested_workers}, "
                f"clamped: {self.clamp_reason})"
                if self.clamp_reason
                else f" (requested {self.requested_workers})"
            ),
            f"  est serial {self.est_serial_seconds:.3f}s vs "
            f"est parallel {self.est_parallel_seconds:.3f}s",
        ]
        width = max((len(v.name) for v in self.variants), default=7)
        width = max(width, len("variant"))
        lines.append(
            f"  {'variant':<{width}}  {'seed':>10}  {'predicted':<14}"
            f"  {'est':>8}  decision"
        )
        for variant, seconds in zip(self.variants, self.marginal_seconds):
            hits = sum(1 for s in variant.stages if s.predicted == "disk")
            predicted = f"disk {hits}/{len(variant.stages)}"
            if variant.dedup_of is not None:
                decision = f"dedup -> {variant.dedup_of}"
            elif variant.fully_cached:
                decision = "replay (cached)"
            else:
                decision = "compute"
            lines.append(
                f"  {variant.name:<{width}}  {variant.seed:>10}  "
                f"{predicted:<14}  {seconds:7.3f}s  {decision}"
            )
        if self.cost_sources:
            priced = ", ".join(
                f"{stage}={source}"
                for stage, source in sorted(self.cost_sources.items())
            )
            lines.append(f"  cost sources: {priced}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PlanEntry:
    """Planner input for one variant: identity plus precomputed keys.

    ``stage_keys`` maps stage name to cache key in execution order
    (:func:`repro.engine.executor.precompute_stage_keys` output).
    """

    name: str
    seed: int
    stage_keys: Mapping[str, str]


class SweepPlanner:
    """Builds :class:`SweepPlan` objects; executes nothing.

    Parameters
    ----------
    cost_model:
        Per-stage pricing; defaults to the static table (build one
        with :meth:`StageCostModel.from_ledger` for live history).
    disk_cache:
        The cache execution will read through; probed (cheap ``stat``
        per key) for hit prediction and dedup.  ``None`` disables
        both — without a shared persistent cache a duplicate variant
        in another process would recompute, not replay.
    cpus:
        Override for :func:`available_cpus` (tests pin this).
    spawn_seconds / ipc_seconds:
        The parallel-overhead constants of the cost comparison.
    """

    def __init__(
        self,
        *,
        cost_model: StageCostModel | None = None,
        disk_cache: DiskCache | None = None,
        cpus: int | None = None,
        spawn_seconds: float = WORKER_SPAWN_SECONDS,
        ipc_seconds: float = VARIANT_IPC_SECONDS,
    ) -> None:
        self._costs = cost_model or StageCostModel()
        self._disk = disk_cache
        self._cpus = cpus if cpus is not None else available_cpus()
        self._spawn = float(spawn_seconds)
        self._ipc = float(ipc_seconds)

    def plan(
        self,
        entries: Sequence[PlanEntry],
        *,
        workers: int | str | None = None,
    ) -> SweepPlan:
        """Plan one sweep over ``entries``.

        ``workers`` is ``"auto"``/``None`` (size from CPUs + cost
        model) or an explicit upper bound.  The request is clamped to
        the available CPUs and runnable variants, duplicates are
        deduped, and the pool is used only when the cost model prices
        it below a serial run.
        """
        if not entries:
            raise EngineError("SweepPlanner.plan: no entries")
        requested = workers
        if isinstance(workers, str):
            if workers != "auto":
                raise EngineError(
                    f"SweepPlanner: workers must be an int, None or 'auto', "
                    f"got {workers!r}"
                )
            workers = None
        if workers is not None and workers < 1:
            raise EngineError(
                f"SweepPlanner: workers must be >= 1, got {workers}"
            )

        variants = self._plan_variants(entries)
        pool = [v for v in variants if v.pool_eligible]
        replay_cost = CACHE_HIT_SECONDS * sum(
            len(v.stages) for v in variants if not v.pool_eligible
        )
        est_serial = sum(_marginal_seconds(variants))

        chosen, clamp_reason = self._choose_workers(workers, len(pool))
        est_parallel = (
            self._spawn * chosen
            + max(
                sum(_marginal_seconds(pool[i::chosen]))
                for i in range(chosen)
            )
            + self._ipc * len(pool)
            + replay_cost
        )

        mode = (
            "parallel"
            if chosen > 1 and est_parallel < est_serial
            else "serial"
        )
        if mode == "serial":
            chosen = 1

        stage_names = {
            plan.stage for variant in variants for plan in variant.stages
        }
        plan = SweepPlan(
            variants=tuple(variants),
            requested_workers=requested,
            workers=chosen,
            mode=mode,
            cpus=self._cpus,
            est_serial_seconds=est_serial,
            est_parallel_seconds=est_parallel,
            clamp_reason=clamp_reason,
            cost_sources={
                name: self._costs.source(name) for name in stage_names
            },
        )
        if _log.isEnabledFor(20):  # INFO
            _log.info(
                fmt_kv(
                    "plan.built",
                    variants=len(variants),
                    mode=mode,
                    workers=chosen,
                    cpus=self._cpus,
                    deduped=len(plan.deduped),
                    cached=len(plan.cached),
                    est_serial_s=round(est_serial, 4),
                    est_parallel_s=round(est_parallel, 4),
                )
            )
        return plan

    def _plan_variants(self, entries: Sequence[PlanEntry]) -> list[VariantPlan]:
        seen: dict[str, str] = {}
        variants: list[VariantPlan] = []
        for entry in entries:
            stages = tuple(
                self._plan_stage(stage, key)
                for stage, key in entry.stage_keys.items()
            )
            chain = combine(*[plan.key for plan in stages])
            dedup_of = None
            if self._disk is not None:
                dedup_of = seen.get(chain)
                if dedup_of is None:
                    seen[chain] = entry.name
            variants.append(
                VariantPlan(
                    name=entry.name,
                    seed=entry.seed,
                    stages=stages,
                    fingerprint=chain,
                    dedup_of=dedup_of,
                )
            )
        return variants

    def _plan_stage(self, stage: str, key: str) -> StagePlan:
        hit = self._disk is not None and self._disk.contains(key)
        return StagePlan(
            stage=stage,
            key=key,
            predicted="disk" if hit else "compute",
            est_seconds=(
                CACHE_HIT_SECONDS if hit else self._costs.cost(stage)
            ),
        )

    def _choose_workers(
        self, requested: int | None, runnable: int
    ) -> tuple[int, str | None]:
        """Clamp to CPUs and runnable variants; say why when reducing."""
        ceiling = max(1, min(self._cpus, runnable))
        if requested is None:
            return ceiling, None
        if requested <= ceiling:
            return requested, None
        reason = (
            f"available_cpus={self._cpus}"
            if ceiling == self._cpus
            else f"runnable_variants={runnable}"
        )
        _log.warning(
            fmt_kv(
                "fanout.clamp",
                requested=requested,
                granted=ceiling,
                cpus=self._cpus,
                runnable=runnable,
            )
        )
        return ceiling, reason
