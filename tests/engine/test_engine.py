"""Unit tests for the generic stage-graph engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    FunctionStage,
    PipelineEngine,
    RunContext,
    StageCache,
    available_cpus,
    fingerprint,
    precompute_stage_keys,
    run_single,
)
from repro.exceptions import EngineError


def _chain(calls, *, offset=0):
    """A three-stage linear graph a -> b -> c with call counters."""

    def stage_a(source):
        calls["a"] += 1
        return source + 1

    def stage_b(x):
        calls["b"] += 1
        return x * 2 + offset

    def stage_c(y):
        calls["c"] += 1
        return {"z": y * 10, "w": y - 1}

    return [
        FunctionStage("a", stage_a, inputs=("source",), outputs=("x",)),
        FunctionStage(
            "b", stage_b, inputs=("x",), outputs=("y",), params={"offset": offset}
        ),
        FunctionStage("c", stage_c, inputs=("y",), outputs=("z", "w")),
    ]


class TestExecution:
    def test_linear_graph_computes(self):
        calls = {"a": 0, "b": 0, "c": 0}
        run = PipelineEngine().run(_chain(calls), {"source": 3})
        assert run.artifact("x") == 4
        assert run.artifact("y") == 8
        assert run.artifact("z") == 80
        assert run.artifact("w") == 7
        assert calls == {"a": 1, "b": 1, "c": 1}

    def test_stage_order_is_derived_not_given(self):
        calls = {"a": 0, "b": 0, "c": 0}
        stages = _chain(calls)
        run = PipelineEngine().run(list(reversed(stages)), {"source": 3})
        assert run.artifact("z") == 80
        assert [s.stage for s in run.report.stages] == ["a", "b", "c"]

    def test_missing_input_raises(self):
        calls = {"a": 0, "b": 0, "c": 0}
        stages = _chain(calls)[1:]  # drop the producer of "x"
        with pytest.raises(EngineError, match="unsatisfiable"):
            PipelineEngine().run(stages, {"source": 3})

    def test_duplicate_producer_raises(self):
        twice = [
            FunctionStage("p1", lambda: 1, outputs=("x",)),
            FunctionStage("p2", lambda: 2, outputs=("x",)),
        ]
        with pytest.raises(EngineError, match="produced by both"):
            PipelineEngine().run(twice, {})

    def test_cycle_raises(self):
        loop = [
            FunctionStage("f", lambda g: g, inputs=("g_out",), outputs=("f_out",)),
            FunctionStage("g", lambda f: f, inputs=("f_out",), outputs=("g_out",)),
        ]
        with pytest.raises(EngineError, match="cycle"):
            PipelineEngine().run(loop, {})

    def test_undeclared_output_raises(self):
        bad = FunctionStage(
            "bad", lambda: {"other": 1, "x": 2}, outputs=("x", "y")
        )
        with pytest.raises(EngineError, match="declared outputs"):
            PipelineEngine().run([bad], {})

    def test_overwriting_source_raises(self):
        stage = FunctionStage("s", lambda: 1, outputs=("source",))
        with pytest.raises(EngineError, match="overwrite"):
            PipelineEngine().run([stage], {"source": 0})


class TestMemoization:
    def test_identical_rerun_is_all_cache_hits(self):
        calls = {"a": 0, "b": 0, "c": 0}
        engine = PipelineEngine()
        stages = _chain(calls)
        first = engine.run(stages, {"source": 3})
        second = engine.run(_chain(calls), {"source": 3})
        assert calls == {"a": 1, "b": 1, "c": 1}
        assert second.report.cache_hits == 3
        assert second.report.cache_misses == 0
        assert first.artifacts == second.artifacts

    def test_param_change_recomputes_only_downstream(self):
        calls = {"a": 0, "b": 0, "c": 0}
        engine = PipelineEngine()
        engine.run(_chain(calls), {"source": 3})
        run = engine.run(_chain(calls, offset=5), {"source": 3})
        # a is unchanged upstream: served from cache.
        assert run.report.stats_for("a").cache_hit
        # b changed, and c consumes b's output: both recompute.
        assert not run.report.stats_for("b").cache_hit
        assert not run.report.stats_for("c").cache_hit
        assert calls == {"a": 1, "b": 2, "c": 2}
        assert run.artifact("y") == 13

    def test_source_change_invalidates_everything(self):
        calls = {"a": 0, "b": 0, "c": 0}
        engine = PipelineEngine()
        engine.run(_chain(calls), {"source": 3})
        run = engine.run(_chain(calls), {"source": 4})
        assert run.report.cache_hits == 0
        assert calls == {"a": 2, "b": 2, "c": 2}

    def test_lru_eviction(self):
        cache = StageCache(2)
        for key in ("a", "b", "c"):  # 3 stages > 2 slots
            cache.put(key, {"out": key})
        # a was evicted by c; b and c stay, and a read refreshes b so
        # the next insert evicts c.
        assert cache.get("a") is None
        assert cache.get("b") == {"out": "b"}
        cache.put("d", {"out": "d"})
        assert cache.get("c") is None
        assert cache.get("b") == {"out": "b"}
        assert cache.info().entries == 2

    def test_clear_cache(self):
        calls = {"a": 0, "b": 0, "c": 0}
        engine = PipelineEngine()
        engine.run(_chain(calls), {"source": 3})
        engine.clear_cache()
        engine.run(_chain(calls), {"source": 3})
        assert calls == {"a": 2, "b": 2, "c": 2}


class TestInstrumentation:
    def test_report_shape(self):
        calls = {"a": 0, "b": 0, "c": 0}
        run = PipelineEngine().run(_chain(calls), {"source": 3})
        assert [s.stage for s in run.report.stages] == ["a", "b", "c"]
        for stats in run.report.stages:
            assert stats.wall_seconds >= 0.0
            assert stats.total_bytes > 0
        assert run.report.total_seconds >= 0.0
        assert "cache hit" in run.report.summary()

    def test_stats_for_unknown_stage(self):
        calls = {"a": 0, "b": 0, "c": 0}
        run = PipelineEngine().run(_chain(calls), {"source": 3})
        with pytest.raises(EngineError, match="no stage named"):
            run.report.stats_for("nope")


class TestFingerprint:
    def test_mapping_key_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_type_discrimination(self):
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint("1") != fingerprint(1)
        assert fingerprint(True) != fingerprint(1)

    def test_arrays_by_content(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        assert fingerprint(a) == fingerprint(a.copy())
        assert fingerprint(a) != fingerprint(a.T)
        assert fingerprint(a) != fingerprint(a.astype(np.float32))

    def test_dataclasses(self):
        from repro.som.som import SOMConfig

        assert fingerprint(SOMConfig(seed=1)) == fingerprint(SOMConfig(seed=1))
        assert fingerprint(SOMConfig(seed=1)) != fingerprint(SOMConfig(seed=2))

    def test_unhashable_object_raises(self):
        class Opaque:
            __slots__ = ()

        with pytest.raises(EngineError, match="cannot hash"):
            fingerprint(object())
        with pytest.raises(EngineError, match="cannot hash"):
            fingerprint(Opaque())


class TestHelpers:
    def test_run_single(self):
        stage = FunctionStage(
            "double", lambda x: 2 * x, inputs=("x",), outputs=("y",)
        )
        assert run_single(stage, {"x": 21}) == {"y": 42}

    def test_run_single_missing_input(self):
        stage = FunctionStage(
            "double", lambda x: 2 * x, inputs=("x",), outputs=("y",)
        )
        with pytest.raises(EngineError, match="missing"):
            run_single(stage, {})

    def test_run_context_lookup_error(self):
        ctx = RunContext({"x": 1})
        assert ctx["x"] == 1
        with pytest.raises(EngineError, match="no artifact"):
            ctx["y"]

    def test_stage_cache_counters(self):
        cache = StageCache(max_entries=2)
        assert cache.get("k") is None
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        info = cache.info()
        assert (info.hits, info.misses, info.entries) == (1, 1, 1)


class TestPrecomputedKeys:
    def test_keys_match_an_actual_engine_run(self):
        """Predicted keys are the executor's keys, stage for stage."""
        stages = _chain({"a": 0, "b": 0, "c": 0})
        source = {"source": fingerprint("probe")}
        predicted = precompute_stage_keys(stages, source)
        run = PipelineEngine().run(
            stages, {"source": 3}, source_fingerprints=source
        )
        executed = {stats.stage: stats.key for stats in run.report.stages}
        assert predicted == executed

    def test_keys_come_back_in_execution_order(self):
        stages = _chain({"a": 0, "b": 0, "c": 0})
        keys = precompute_stage_keys(
            list(reversed(stages)), {"source": fingerprint(1)}
        )
        assert list(keys) == ["a", "b", "c"]

    def test_missing_source_fingerprint_raises(self):
        stages = _chain({"a": 0, "b": 0, "c": 0})
        with pytest.raises(EngineError, match="'a'"):
            precompute_stage_keys(stages, {"wrong_root": fingerprint(1)})


class TestHostinfo:
    def test_available_cpus_is_positive_and_bounded(self):
        import os

        cpus = available_cpus()
        assert cpus >= 1
        assert cpus <= (os.cpu_count() or cpus)
