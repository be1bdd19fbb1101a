"""Hand-built sweep plans for tests that must force a split.

The planner decides how a sweep runs and the scheduler only executes
its plan, so a test that needs, say, three forked workers for three
cheap variants builds the :class:`~repro.engine.plan.SweepPlan` itself
rather than asking the planner to fork a sweep it prices as losing.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.engine.fanout import (
    SweepScheduler,
    Variant,
    VariantOutcome,
    derive_seeds,
)
from repro.engine.plan import SweepPlan, VariantPlan


def hand_plan(
    variants: Sequence[Variant], *, workers: int = 1, base_seed: int = 0
) -> SweepPlan:
    """A plan that runs every variant on ``workers`` processes.

    ``workers > 1`` is a parallel plan with every variant in the pool;
    ``1`` is a serial plan.  Seeds follow
    :func:`~repro.engine.fanout.derive_seeds`, as the planner's do.
    """
    return SweepPlan(
        variants=tuple(
            VariantPlan(name=variant.name, seed=seed)
            for variant, seed in zip(variants, derive_seeds(variants, base_seed))
        ),
        requested_workers=workers,
        workers=workers,
        mode="parallel" if workers > 1 else "serial",
        cpus=workers,
        est_serial_seconds=0.0,
        est_parallel_seconds=0.0,
    )


def run_planned(
    task: Callable[..., Any],
    variants: Sequence[Variant],
    *,
    workers: int = 1,
    base_seed: int = 0,
    initializer: Callable[..., None] | None = None,
    initargs: tuple[Any, ...] = (),
) -> list[VariantOutcome]:
    """Execute ``variants`` through :class:`SweepScheduler` on a hand plan."""
    scheduler = SweepScheduler(task, initializer=initializer, initargs=initargs)
    return scheduler.execute(
        hand_plan(variants, workers=workers, base_seed=base_seed), variants
    )
