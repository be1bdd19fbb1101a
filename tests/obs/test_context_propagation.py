"""Trace-context propagation across process boundaries.

A traced **parallel sweep** yields one connected span tree per
``trace_id`` — worker subtrees grafted back from the fork pool carry
the originating request's trace_id, not a fresh one — and the
resulting ledger record is byte-stable under ``obs show --json``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.analysis.sweep import (
    PipelineVariant,
    plan_pipeline_variants,
    run_pipeline_variants,
)
from repro.engine.fanout import Variant, fork_available
from repro.engine.plan import StageCostModel
from repro.obs import (
    MetricsRegistry,
    RunRecorder,
    Tracer,
    new_context,
    use_context,
    use_metrics,
    use_tracer,
)
from repro.workloads.suite import BenchmarkSuite
from tests.sweep_plans import run_planned


@pytest.fixture(scope="module")
def suite():
    return BenchmarkSuite.paper_suite()


def _spanning_task(params, seed):
    from repro.obs import current_tracer

    with current_tracer().span("task.outer", seed=seed):
        time.sleep(0.002)
    return seed


def _traced_fan_out(workers):
    tracer, context = Tracer(), new_context()
    variants = [Variant(f"v{i}") for i in range(3)]
    with use_context(context), use_tracer(tracer), use_metrics(
        MetricsRegistry()
    ):
        with tracer.span("sweep.run"):
            run_planned(_spanning_task, variants, workers=workers, base_seed=5)
    return tracer, context


def _assert_one_connected_tree(tracer, trace_id):
    """Every span stamped with trace_id, all under a single root."""
    spans = list(tracer.spans())
    assert spans, "traced run recorded no spans"
    assert {s.trace_id for s in spans} == {trace_id}
    assert len(tracer.roots) == 1


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestSweepPropagation:
    def test_parallel_sweep_is_one_tree_per_trace_id(self):
        tracer, context = _traced_fan_out(workers=3)
        _assert_one_connected_tree(tracer, context.trace_id)
        # Grafted worker subtrees exist and carry the parent's id.
        variant_spans = tracer.find("fanout.variant")
        assert len(variant_spans) == 3
        for span in variant_spans:
            assert span.attributes["mode"] == "parallel"
            assert span.trace_id == context.trace_id
            assert [c.trace_id for c in span.children] == [context.trace_id]

    def test_two_sweeps_get_disjoint_trace_ids(self):
        tracer_a, context_a = _traced_fan_out(workers=2)
        tracer_b, context_b = _traced_fan_out(workers=2)
        assert context_a.trace_id != context_b.trace_id
        ids_a = {s.trace_id for s in tracer_a.spans()}
        ids_b = {s.trace_id for s in tracer_b.spans()}
        assert ids_a.isdisjoint(ids_b) or ids_a != ids_b

    def test_untraced_context_free_sweep_stays_unstamped(self):
        tracer = Tracer()
        with use_tracer(tracer), use_metrics(MetricsRegistry()):
            run_planned(
                _spanning_task,
                [Variant("v0")],
                workers=2,
                base_seed=5,
            )
        assert {s.trace_id for s in tracer.spans()} == {None}

    def test_ledger_record_byte_stable_under_obs_show_json(self, suite):
        """The record `obs show --json` prints serializes identically."""
        tracer, context = Tracer(), new_context()
        variants = [
            PipelineVariant(
                name=linkage, linkage=linkage, som_mode="batch", seed=11
            )
            for linkage in ("complete", "average")
        ]
        # Pin the planner's CPU count, and price the per-variant stage
        # above the fork overhead, so the sweep forks on any host.
        plan = plan_pipeline_variants(
            variants,
            suite,
            workers=2,
            cpus=2,
            cost_model=StageCostModel(measured={"cluster": 30.0}),
        )
        assert plan.mode == "parallel"
        recorder = RunRecorder("sweep", {"workers": 2})
        with use_context(context), use_tracer(tracer), use_metrics(
            MetricsRegistry()
        ):
            with tracer.span("sweep.request"):
                run_pipeline_variants(variants, suite, workers=2, plan=plan)
        _assert_one_connected_tree(tracer, context.trace_id)
        # Both variants ran in pool workers and were grafted back.
        variant_spans = tracer.find("fanout.variant")
        assert [s.attributes["mode"] for s in variant_spans] == [
            "parallel",
            "parallel",
        ]
        record = recorder.finish(tracer=tracer, trace_id=context.trace_id)
        assert record["trace_id"] == context.trace_id
        # obs show --json is json.dumps(record, indent=2, sort_keys=True);
        # two serializations and a decode/encode round trip are bytes-equal.
        first = json.dumps(record, indent=2, sort_keys=True)
        second = json.dumps(record, indent=2, sort_keys=True)
        assert first == second
        rehydrated = json.dumps(
            json.loads(first), indent=2, sort_keys=True
        )
        assert rehydrated == first
        # Every span in the stored trace payload carries the trace_id.
        def _ids(payload):
            yield payload.get("trace_id")
            for child in payload.get("children") or ():
                yield from _ids(child)

        for root in record["trace"]:
            assert set(_ids(root)) == {context.trace_id}
