"""Cross-process telemetry propagation: payloads, grafts, merges.

Pins the PR's core guarantee: a fan-out over identical variants
produces *structurally equivalent* traces and *identical* merged
counter totals whether it ran serially in-process or across a fork
pool — child spans carry their real durations and worker pids either
way.
"""

from __future__ import annotations

import math
import os
import time

import pytest

from repro.engine.fanout import Variant, fork_available
from repro.exceptions import ReproError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    span_from_payload,
    use_metrics,
    use_tracer,
)
from tests.sweep_plans import run_planned

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _traced_task(params, seed):
    """Module-level (picklable) task that emits spans and metrics."""
    from repro.obs import current_metrics, current_tracer

    tracer = current_tracer()
    metrics = current_metrics()
    with tracer.span("task.outer", seed=seed):
        with tracer.span("task.inner"):
            time.sleep(0.005)
        with tracer.span("task.inner"):
            pass
    metrics.counter("task_runs_total").inc()
    metrics.counter("task_items_total").inc(params.get("items", 1))
    metrics.gauge("task_last_seed").set(seed)
    metrics.histogram("task_seconds").observe(0.005)
    return seed


def _structure(tracer):
    """(name, depth) signature of every span, depth-first."""
    out = []

    def walk(span, depth):
        out.append((span.name, depth))
        for child in span.children:
            walk(child, depth + 1)

    for root in tracer.roots:
        walk(root, 0)
    return out


def _fan_out(workers):
    tracer, metrics = Tracer(), MetricsRegistry()
    variants = [Variant(f"v{i}", params={"items": i + 1}) for i in range(3)]
    with use_tracer(tracer), use_metrics(metrics):
        outcomes = run_planned(_traced_task, variants, workers=workers, base_seed=5)
    return tracer, metrics, outcomes


class TestSpanPayloadRoundTrip:
    def test_payload_preserves_everything(self):
        tracer = Tracer()
        with tracer.span("root", machine="A") as root:
            root.inc("steps", 3)
            root.add_event("checkpoint", phase="mid")
            with tracer.span("child"):
                pass
        rebuilt = span_from_payload(root.to_payload())
        assert rebuilt.name == "root"
        assert rebuilt.attributes == {"machine": "A"}
        assert rebuilt.counters == {"steps": 3.0}
        assert rebuilt.events[0]["name"] == "checkpoint"
        assert [c.name for c in rebuilt.children] == ["child"]
        assert rebuilt.finished
        assert rebuilt.duration_seconds == root.duration_seconds
        assert rebuilt.start_unix == root.start_unix

    def test_open_span_refuses_to_serialize(self):
        tracer = Tracer()
        span = tracer.span("open")
        span.__enter__()
        with pytest.raises(ReproError, match="has not finished"):
            span.to_payload()
        span.__exit__(None, None, None)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ReproError, match="malformed"):
            span_from_payload({"name": "x"})
        with pytest.raises(ReproError, match="ends before"):
            span_from_payload(
                {"name": "x", "start_seconds": 2.0, "end_seconds": 1.0}
            )


class TestGraft:
    def test_graft_under_open_span(self):
        donor = Tracer()
        with donor.span("worker.root"):
            pass
        receiver = Tracer()
        with receiver.span("parent"):
            receiver.graft(span_from_payload(donor.roots[0].to_payload()))
        (parent,) = receiver.roots
        assert [c.name for c in parent.children] == ["worker.root"]

    def test_graft_as_root_when_nothing_open(self):
        donor = Tracer()
        with donor.span("loose"):
            pass
        receiver = Tracer()
        receiver.graft(donor.roots[0])
        assert [r.name for r in receiver.roots] == ["loose"]

    def test_graft_rejects_open_spans(self):
        tracer = Tracer()
        span = tracer.span("open")
        span.__enter__()
        with pytest.raises(ReproError, match="has not finished"):
            Tracer().graft(span)
        span.__exit__(None, None, None)


class TestSerialFanOutTelemetry:
    def test_variant_spans_carry_real_durations(self):
        tracer, _metrics, outcomes = _fan_out(workers=1)
        variant_spans = tracer.find("fanout.variant")
        assert len(variant_spans) == 3
        for span, outcome in zip(variant_spans, outcomes):
            # The satellite fix: span duration is the measured wall
            # time, not a ~0 bookkeeping artifact.
            assert math.isclose(
                span.duration_seconds,
                span.attributes["wall_seconds"],
                rel_tol=0.5,
            )
            assert span.duration_seconds >= 0.005  # the sleep inside
            assert span.attributes["worker_pid"] == outcome.worker_pid
            assert span.attributes["mode"] == "serial"

    def test_task_spans_nest_under_their_variant(self):
        tracer, _metrics, _ = _fan_out(workers=1)
        for span in tracer.find("fanout.variant"):
            assert [c.name for c in span.children] == ["task.outer"]
            assert [c.name for c in span.children[0].children] == [
                "task.inner",
                "task.inner",
            ]

    def test_metrics_merge_into_ambient_registry(self):
        _tracer, metrics, _ = _fan_out(workers=1)
        snapshot = metrics.as_dict()
        assert snapshot["task_runs_total"] == 3
        assert snapshot["task_items_total"] == 1 + 2 + 3
        assert snapshot["task_seconds"]["count"] == 3


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestSerialParallelEquivalence:
    """The acceptance criterion: mode never changes the telemetry."""

    def test_traces_structurally_identical(self):
        serial_tracer, _, _ = _fan_out(workers=1)
        parallel_tracer, _, _ = _fan_out(workers=3)
        serial = _structure(serial_tracer)
        parallel = _structure(parallel_tracer)
        # Same span names, same nesting depths, same counts — only the
        # mode attribute and timings may differ.
        assert serial == parallel

    def test_parallel_spans_carry_worker_pids_and_real_durations(self):
        tracer, _metrics, outcomes = _fan_out(workers=3)
        variant_spans = tracer.find("fanout.variant")
        assert len(variant_spans) == 3
        for span, outcome in zip(variant_spans, outcomes):
            assert span.attributes["mode"] == "parallel"
            assert span.attributes["worker_pid"] == outcome.worker_pid
            assert span.attributes["worker_pid"] != os.getpid()
            assert math.isclose(
                span.duration_seconds,
                span.attributes["wall_seconds"],
                rel_tol=0.5,
            )
            assert span.duration_seconds >= 0.005

    def test_merged_counter_totals_identical(self):
        _, serial_metrics, _ = _fan_out(workers=1)
        _, parallel_metrics, _ = _fan_out(workers=3)
        serial = serial_metrics.as_dict()
        parallel = parallel_metrics.as_dict()
        for name in ("task_runs_total", "task_items_total"):
            assert serial[name] == parallel[name]
        assert (
            serial["task_seconds"]["count"]
            == parallel["task_seconds"]["count"]
        )
        assert (
            serial["repro_fanout_variants_total"]
            == parallel["repro_fanout_variants_total"]
        )

    def test_chrome_export_tracks_worker_pids(self):
        import json

        tracer, _metrics, outcomes = _fan_out(workers=3)
        events = json.loads(tracer.to_chrome())["traceEvents"]
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)
        worker_pids = {o.worker_pid for o in outcomes}
        # Variant spans and their nested task spans inherit the worker
        # pid, so each worker renders as its own Chrome track.
        assert {e["pid"] for e in by_name["fanout.variant"]} == worker_pids
        assert {e["pid"] for e in by_name["task.outer"]} <= worker_pids
        assert by_name["fanout.run"][0]["pid"] == os.getpid()

    def test_untraced_parallel_run_still_merges_metrics(self):
        metrics = MetricsRegistry()
        variants = [Variant(f"v{i}") for i in range(2)]
        with use_metrics(metrics):
            run_planned(_traced_task, variants, workers=2)
        assert metrics.as_dict()["task_runs_total"] == 2
