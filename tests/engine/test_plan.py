"""The sweep planner: cost model, key precompute, dedup, worker choice.

The planner's promises: precomputed stage keys are *exactly* the keys
execution uses, dedup never drops a unique fingerprint chain, explicit
worker requests clamp (never error) with a structured warning, and
parallel mode is refused when forking is priced above computing.
"""

from __future__ import annotations

import logging

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.diskcache import DiskCache
from repro.engine.executor import PipelineEngine, precompute_stage_keys
from repro.engine.fingerprint import fingerprint
from repro.engine.hostinfo import available_cpus
from repro.engine.plan import (
    CACHE_HIT_SECONDS,
    DEFAULT_STAGE_COSTS,
    DEFAULT_UNKNOWN_STAGE_SECONDS,
    PlanEntry,
    StageCostModel,
    SweepPlanner,
)
from repro.engine.stage import FunctionStage
from repro.exceptions import EngineError


def _chain(names, source="suite"):
    """A linear FunctionStage chain rooted at one source artifact."""
    stages = []
    upstream = source
    for index, name in enumerate(names):
        stages.append(
            FunctionStage(
                name,
                lambda **kwargs: next(iter(kwargs.values())),
                inputs=(upstream,),
                outputs=(f"{name}_out",),
                params={"index": index},
            )
        )
        upstream = f"{name}_out"
    return tuple(stages)


def _entries(specs):
    """PlanEntry list from ``{name: (seed, {stage: key})}`` specs."""
    return [
        PlanEntry(name=name, seed=seed, stage_keys=keys)
        for name, (seed, keys) in specs.items()
    ]


class TestStageCostModel:
    def test_resolution_order_ledger_static_default(self):
        model = StageCostModel(measured={"reduce": 1.25})
        assert model.cost("reduce") == 1.25
        assert model.source("reduce") == "ledger"
        assert model.cost("cluster") == DEFAULT_STAGE_COSTS["cluster"]
        assert model.source("cluster") == "static"
        assert model.cost("mystery") == DEFAULT_UNKNOWN_STAGE_SECONDS
        assert model.source("mystery") == "default"

    def test_from_ledger_without_path_uses_statics(self):
        model = StageCostModel.from_ledger(None)
        assert model.measured == {}
        assert model.source("reduce") == "static"

    def test_from_ledger_reads_stage_history(self, tmp_path):
        from repro.obs.ledger import RunLedger

        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.append(
            {
                "run_id": "r1",
                "command": "pipeline",
                "stages": [
                    {
                        "stage": "reduce",
                        "wall_seconds": 2.0,
                        "cache_source": "compute",
                    },
                    {
                        "stage": "cluster",
                        "wall_seconds": 9.0,
                        "cache_source": "disk",
                    },
                ],
            }
        )
        model = StageCostModel.from_ledger(str(path))
        assert model.cost("reduce") == 2.0
        assert model.source("reduce") == "ledger"
        # Cache replays are not compute history; static price stands.
        assert model.source("cluster") == "static"


class TestPrecomputedKeys:
    def test_keys_match_an_actual_engine_run(self):
        """The planner's keys are the executor's keys, stage for stage."""
        stages = _chain(["alpha", "beta", "gamma"])
        source = {"suite": fingerprint("probe")}
        predicted = precompute_stage_keys(stages, source)
        run = PipelineEngine().run(
            stages, {"suite": 3}, source_fingerprints=source
        )
        executed = {stats.stage: stats.key for stats in run.report.stages}
        assert predicted == executed

    def test_keys_come_back_in_execution_order(self):
        stages = _chain(["alpha", "beta", "gamma"])
        keys = precompute_stage_keys(stages, {"suite": fingerprint(1)})
        assert list(keys) == ["alpha", "beta", "gamma"]

    def test_missing_source_fingerprint_raises(self):
        stages = _chain(["alpha"])
        with pytest.raises(EngineError, match="alpha"):
            precompute_stage_keys(stages, {"wrong_root": fingerprint(1)})


class TestDedup:
    @given(
        st.lists(
            st.tuples(st.sampled_from("abcdef"), st.sampled_from("xy")),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_dedup_never_drops_a_unique_fingerprint(self, tmp_path_factory, chains):
        """Every distinct stage-key chain keeps exactly one computing owner.

        Variants are built from arbitrary (possibly colliding) chain
        specs; after planning, the non-deduped variants must cover each
        distinct chain exactly once, and every deduped variant must
        point at an earlier variant with the *same* chain.
        """
        cache = DiskCache(tmp_path_factory.mktemp("dedup-cache"))
        entries = [
            PlanEntry(
                name=f"v{index}",
                seed=index,
                stage_keys={
                    "stage_a": fingerprint(("a", a)),
                    "stage_b": fingerprint(("b", b)),
                },
            )
            for index, (a, b) in enumerate(chains)
        ]
        plan = SweepPlanner(disk_cache=cache, cpus=1).plan(entries)
        by_name = {v.name: v for v in plan.variants}
        owners = [v for v in plan.variants if v.dedup_of is None]
        assert sorted({v.fingerprint for v in plan.variants}) == sorted(
            {v.fingerprint for v in owners}
        )
        assert len({v.fingerprint for v in owners}) == len(owners)
        for variant in plan.deduped:
            owner = by_name[variant.dedup_of]
            assert owner.dedup_of is None
            assert owner.fingerprint == variant.fingerprint
            assert plan.variants.index(owner) < plan.variants.index(variant)

    def test_no_disk_cache_disables_dedup(self):
        keys = {"stage_a": fingerprint("same")}
        plan = SweepPlanner(cpus=1).plan(
            _entries({"one": (1, keys), "two": (2, keys)})
        )
        assert plan.deduped == ()


class TestWorkerChoice:
    def test_clamps_to_available_cpus_with_warning(self, caplog):
        entries = _entries(
            {f"v{i}": (i, {"reduce": fingerprint(i)}) for i in range(6)}
        )
        with caplog.at_level(logging.WARNING, logger="repro.engine.plan"):
            plan = SweepPlanner(cpus=2).plan(entries, workers=16)
        assert plan.workers <= 2
        assert plan.clamp_reason is not None
        assert any("fanout.clamp" in r.message for r in caplog.records)

    def test_clamps_to_runnable_variants(self):
        entries = _entries({"only": (1, {"reduce": fingerprint(1)})})
        plan = SweepPlanner(cpus=8).plan(entries, workers=4)
        assert plan.workers == 1
        assert plan.mode == "serial"

    def test_serial_when_parallel_overhead_exceeds_compute(self):
        """Cheap variants on many CPUs still run serial: forking costs more."""
        cheap = StageCostModel(measured={"reduce": 0.001})
        entries = _entries(
            {f"v{i}": (i, {"reduce": fingerprint(i)}) for i in range(4)}
        )
        plan = SweepPlanner(cost_model=cheap, cpus=8).plan(entries)
        assert plan.mode == "serial"
        assert plan.workers == 1
        assert plan.est_parallel_seconds > plan.est_serial_seconds

    def test_parallel_when_compute_dominates_on_many_cpus(self):
        heavy = StageCostModel(measured={"reduce": 30.0})
        entries = _entries(
            {f"v{i}": (i, {"reduce": fingerprint(i)}) for i in range(4)}
        )
        plan = SweepPlanner(cost_model=heavy, cpus=8).plan(entries)
        assert plan.mode == "parallel"
        assert plan.workers == 4
        assert plan.est_parallel_seconds < plan.est_serial_seconds

    def test_bad_inputs_raise(self):
        planner = SweepPlanner(cpus=1)
        entry = PlanEntry(name="v", seed=1, stage_keys={"reduce": fingerprint(1)})
        with pytest.raises(EngineError, match="no entries"):
            planner.plan([])
        with pytest.raises(EngineError, match="workers"):
            planner.plan([entry], workers=0)
        with pytest.raises(EngineError, match="auto"):
            planner.plan([entry], workers="turbo")


def _linkage_sweep(count):
    """Entries sharing upstream keys, each with its own cluster key."""
    shared = {
        stage: fingerprint(stage) for stage in ("characterize", "preprocess", "reduce")
    }
    return _entries(
        {
            f"v{i}": (i, {**shared, "cluster": fingerprint(("cluster", i))})
            for i in range(count)
        }
    )


def _assert_rows_add_up(plan):
    """The plan's per-variant rows sum to its serial estimate."""
    assert sum(plan.marginal_seconds) == pytest.approx(
        plan.est_serial_seconds, abs=1e-9
    )
    rows = plan.render().splitlines()[3 : 3 + len(plan.variants)]
    printed = [float(row.split()[4].rstrip("s")) for row in rows]
    assert printed == [round(s, 3) for s in plan.marginal_seconds]


class TestSharedStagePricing:
    def test_rendered_rows_add_up_to_the_serial_estimate(self):
        plan = SweepPlanner(cpus=1).plan(_linkage_sweep(5))
        _assert_rows_add_up(plan)
        costs = DEFAULT_STAGE_COSTS
        # The first variant computes the shared stages; the rest add
        # only their own cluster stage.
        assert plan.marginal_seconds[1:] == pytest.approx(
            [costs["cluster"]] * 4
        )

    def test_serial_prices_each_distinct_key_once(self):
        plan = SweepPlanner(cpus=1).plan(_linkage_sweep(5))
        costs = DEFAULT_STAGE_COSTS
        shared = costs["characterize"] + costs["preprocess"] + costs["reduce"]
        assert plan.est_serial_seconds == pytest.approx(
            shared + 5 * costs["cluster"]
        )

    def test_linkage_sweep_stays_serial_on_many_cpus(self):
        """Every worker would retrain the shared SOM: forking loses."""
        plan = SweepPlanner(cpus=8).plan(_linkage_sweep(5), workers=4)
        assert plan.mode == "serial"
        assert plan.workers == 1
        assert plan.est_parallel_seconds > plan.est_serial_seconds

    def test_each_worker_is_charged_the_shared_stages(self):
        planner = SweepPlanner(
            cost_model=StageCostModel(measured={"cluster": 30.0}),
            cpus=2,
            spawn_seconds=0.5,
            ipc_seconds=0.25,
        )
        plan = planner.plan(_linkage_sweep(5))
        costs = DEFAULT_STAGE_COSTS
        shared = costs["characterize"] + costs["preprocess"] + costs["reduce"]
        assert plan.mode == "parallel"
        assert plan.workers == 2
        # Round-robin shares of 3 and 2 variants; the busier one sets it.
        assert plan.est_parallel_seconds == pytest.approx(
            2 * 0.5 + shared + 3 * 30.0 + 5 * 0.25
        )


class TestCachePrediction:
    def test_warm_cache_marks_variants_for_replay(self, tmp_path):
        cache = DiskCache(tmp_path)
        warm = fingerprint("warm")
        cache.put(warm, {"x": 1})
        cold = fingerprint("cold")
        plan = SweepPlanner(disk_cache=cache, cpus=4).plan(
            _entries(
                {
                    "hit": (1, {"reduce": warm}),
                    "miss": (2, {"reduce": cold}),
                }
            )
        )
        by_name = {v.name: v for v in plan.variants}
        assert by_name["hit"].fully_cached
        assert not by_name["hit"].pool_eligible
        assert not by_name["miss"].fully_cached
        assert plan.cached == (by_name["hit"],)

    def test_rows_add_up_with_cached_and_deduped_variants(self, tmp_path):
        cache = DiskCache(tmp_path)
        warm = _linkage_sweep(1)[0].stage_keys
        for key in warm.values():
            cache.put(key, {"x": 1})
        entries = [
            PlanEntry(name="cached", seed=0, stage_keys=warm),
            *_linkage_sweep(4)[1:],
            PlanEntry(
                name="twin", seed=9, stage_keys=_linkage_sweep(4)[3].stage_keys
            ),
        ]
        plan = SweepPlanner(disk_cache=cache, cpus=1).plan(entries)
        assert [v.name for v in plan.cached] == ["cached"]
        assert [v.name for v in plan.deduped] == ["twin"]
        _assert_rows_add_up(plan)
        cached_row, *_, twin_row = plan.marginal_seconds
        assert cached_row == twin_row == pytest.approx(CACHE_HIT_SECONDS * 4)

    def test_render_mentions_every_variant_and_decision(self, tmp_path):
        cache = DiskCache(tmp_path)
        warm = fingerprint("warm")
        cache.put(warm, {"x": 1})
        plan = SweepPlanner(disk_cache=cache, cpus=1).plan(
            _entries(
                {
                    "cached": (1, {"reduce": warm}),
                    "fresh": (2, {"reduce": fingerprint("cold")}),
                    "twin": (3, {"reduce": fingerprint("cold")}),
                }
            )
        )
        rendered = plan.render()
        for expected in (
            "cached",
            "fresh",
            "twin",
            "replay (cached)",
            "dedup -> fresh",
            "compute",
            "cost sources",
            "mode=serial",
        ):
            assert expected in rendered


class TestHostinfo:
    def test_available_cpus_is_positive_and_bounded(self):
        cpus = available_cpus()
        assert cpus >= 1
        import os

        assert cpus <= (os.cpu_count() or cpus)
