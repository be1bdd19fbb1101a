"""SweepScheduler: determinism, parallel/serial equivalence, sweeps."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine import (
    PlanEntry,
    SweepPlanner,
    SweepScheduler,
    Variant,
    derive_seed,
    fingerprint,
    fork_available,
)
from repro.exceptions import EngineError
from repro.obs import Tracer, use_tracer
from tests.sweep_plans import hand_plan, run_planned

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _scaled_draw(params, seed):
    """Module-level task (picklable): a seeded draw scaled by a knob."""
    rng = np.random.default_rng(seed)
    return float(rng.standard_normal() * params.get("scale", 1.0))


def _identity(params, seed):
    return {"params": dict(params), "seed": seed, "pid": os.getpid()}


def _fail_when_told(params, seed):
    if params.get("fail"):
        raise ValueError("bad variant")
    return seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(11, 0, "a") == derive_seed(11, 0, "a")

    def test_discriminates_base_index_and_name(self):
        baseline = derive_seed(11, 0, "a")
        assert derive_seed(12, 0, "a") != baseline
        assert derive_seed(11, 1, "a") != baseline
        assert derive_seed(11, 0, "b") != baseline

    def test_non_negative_32bit(self):
        for index in range(20):
            seed = derive_seed(0, index, f"v{index}")
            assert 0 <= seed < 2**32


class TestSerialExecution:
    def test_outcomes_in_variant_order(self):
        outcomes = run_planned(
            _identity, [Variant(f"v{i}") for i in range(4)]
        )
        assert [o.name for o in outcomes] == ["v0", "v1", "v2", "v3"]

    def test_explicit_seed_wins_derived_fills_in(self):
        outcomes = run_planned(
            _scaled_draw,
            [Variant("pinned", seed=7), Variant("derived")],
            base_seed=11,
        )
        assert outcomes[0].seed == 7
        assert outcomes[1].seed == derive_seed(11, 1, "derived")

    def test_serial_runs_in_parent_process(self):
        (outcome,) = run_planned(_identity, [Variant("only")])
        assert outcome.worker_pid == os.getpid()
        assert outcome.in_parent

    def test_initializer_runs_once_before_variants(self):
        ran = []
        run_planned(
            _identity,
            [Variant("a"), Variant("b")],
            initializer=lambda tag: ran.append(tag),
            initargs=("setup",),
        )
        assert ran == ["setup"]

    def test_rejects_empty_and_duplicate_variants(self):
        scheduler = SweepScheduler(_identity)
        with pytest.raises(EngineError, match="no variants"):
            scheduler.execute(hand_plan([Variant("a")]), [])
        doubled = [Variant("same"), Variant("same")]
        with pytest.raises(EngineError, match="duplicate"):
            scheduler.execute(hand_plan(doubled), doubled)

    def test_spans_cover_run_and_each_variant(self):
        tracer = Tracer()
        with use_tracer(tracer):
            run_planned(_scaled_draw, [Variant("a"), Variant("b")])
        assert len(tracer.find("fanout.run")) == 1
        variant_spans = tracer.find("fanout.variant")
        assert sorted(s.attributes["variant"] for s in variant_spans) == [
            "a",
            "b",
        ]
        assert all("wall_seconds" in s.attributes for s in variant_spans)
        # The span now times the task itself, so its duration is the
        # measured wall time (it used to be a ~0 bookkeeping span).
        for span in variant_spans:
            assert span.duration_seconds == pytest.approx(
                span.attributes["wall_seconds"], rel=0.5, abs=5e-3
            )
            assert span.attributes["worker_pid"] == os.getpid()


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestParallelExecution:
    def test_parallel_matches_serial_exactly(self):
        variants = [
            Variant(f"v{i}", params={"scale": float(i + 1)}) for i in range(5)
        ]
        serial = run_planned(_scaled_draw, variants, workers=1, base_seed=3)
        parallel = run_planned(_scaled_draw, variants, workers=3, base_seed=3)
        for s, p in zip(serial, parallel):
            assert s.seed == p.seed
            assert s.value == p.value  # bitwise: same seed, same arithmetic

    def test_parallel_runs_outside_the_parent(self):
        outcomes = run_planned(
            _identity, [Variant(f"v{i}") for i in range(3)], workers=2
        )
        assert [o.name for o in outcomes] == ["v0", "v1", "v2"]
        assert all(o.worker_pid != os.getpid() for o in outcomes)
        assert all(not o.in_parent for o in outcomes)

    def test_workers_capped_by_variant_count(self):
        # 1 variant with 8 workers on 8 CPUs plans serial execution.
        entry = PlanEntry(
            name="only", seed=1, stage_keys={"reduce": fingerprint("only")}
        )
        plan = SweepPlanner(cpus=8).plan([entry], workers=8)
        assert plan.workers == 1
        (outcome,) = SweepScheduler(_identity).execute(plan, [Variant("only")])
        assert outcome.in_parent

    def test_parallel_variant_spans_time_the_task(self):
        tracer = Tracer()
        with use_tracer(tracer):
            outcomes = run_planned(
                _scaled_draw, [Variant("a"), Variant("b")], workers=2
            )
        variant_spans = tracer.find("fanout.variant")
        assert len(variant_spans) == 2
        for span, outcome in zip(variant_spans, outcomes):
            assert span.attributes["mode"] == "parallel"
            assert span.attributes["worker_pid"] == outcome.worker_pid
            assert span.duration_seconds == pytest.approx(
                span.attributes["wall_seconds"], rel=0.5, abs=5e-3
            )

    def test_task_exception_propagates_unchanged(self):
        variants = [Variant("a"), Variant("b", params={"fail": True})]
        with pytest.raises(ValueError, match="bad variant"):
            run_planned(_fail_when_told, variants, workers=2)


class TestPipelineSweeps:
    @pytest.fixture(scope="class")
    def linkage_variants(self):
        from repro.analysis.sweep import PipelineVariant

        return [
            PipelineVariant(name=linkage, linkage=linkage, seed=11)
            for linkage in ("complete", "single")
        ]

    def test_serial_sweep_shares_upstream_stages(
        self, linkage_variants, paper_suite, tmp_path
    ):
        from repro.analysis.sweep import run_pipeline_variants

        runs = run_pipeline_variants(
            linkage_variants, paper_suite, workers=1, cache_dir=tmp_path
        )
        assert [r.name for r in runs] == ["complete", "single"]
        # Second variant reuses characterize/preprocess/reduce from the
        # first (memory or disk — anything but recompute).
        second = runs[1].result.run_report
        for stage in ("characterize", "preprocess", "reduce"):
            assert second.stats_for(stage).cache_source != "compute"

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_parallel_sweep_bitwise_matches_serial(
        self, linkage_variants, paper_suite, tmp_path
    ):
        from repro.analysis.sweep import (
            plan_pipeline_variants,
            run_pipeline_variants,
        )
        from repro.engine.plan import StageCostModel

        serial = run_pipeline_variants(
            linkage_variants,
            paper_suite,
            workers=1,
            cache_dir=tmp_path / "serial",
        )
        # A linkage sweep shares its upstream stages, so the planner
        # runs it serially; pricing the per-variant stage above the
        # fork overhead makes it fork.
        plan = plan_pipeline_variants(
            linkage_variants,
            paper_suite,
            workers=2,
            cache_dir=tmp_path / "parallel",
            cost_model=StageCostModel(measured={"cluster": 30.0}),
            cpus=2,
        )
        assert plan.mode == "parallel"
        parallel = run_pipeline_variants(
            linkage_variants,
            paper_suite,
            cache_dir=tmp_path / "parallel",
            plan=plan,
        )
        assert all(run.worker_pid != os.getpid() for run in parallel)
        for s, p in zip(serial, parallel):
            assert s.seed == p.seed
            a, b = s.result, p.result
            assert np.array_equal(
                a.prepared_vectors.matrix, b.prepared_vectors.matrix
            )
            assert np.array_equal(a.som.weights, b.som.weights)
            assert a.positions == b.positions
            assert a.dendrogram == b.dendrogram
            assert a.cuts == b.cuts
            assert a.recommended_clusters == b.recommended_clusters
            # Lazily measured sizes: a worker's report carries the
            # byte totals a serial run reports.
            assert [(st.stage, st.total_bytes) for st in a.run_report.stages] == [
                (st.stage, st.total_bytes) for st in b.run_report.stages
            ]

    def test_warm_parallel_sweep_computes_nothing(
        self, linkage_variants, paper_suite, tmp_path
    ):
        from repro.analysis.sweep import run_pipeline_variants

        run_pipeline_variants(
            linkage_variants, paper_suite, workers=1, cache_dir=tmp_path
        )
        warm = run_pipeline_variants(
            linkage_variants,
            paper_suite,
            workers=2 if fork_available() else 1,
            cache_dir=tmp_path,
        )
        for run in warm:
            assert all(
                s.cache_source in ("disk", "memory")
                for s in run.result.run_report.stages
            )

    def test_empty_variant_list_rejected(self, paper_suite):
        from repro.analysis.sweep import run_pipeline_variants
        from repro.exceptions import MeasurementError

        with pytest.raises(MeasurementError):
            run_pipeline_variants([], paper_suite)
