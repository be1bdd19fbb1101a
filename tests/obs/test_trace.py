"""Unit tests for the tracing spans (repro.obs.trace)."""

from __future__ import annotations

import json
import time

import pytest

from repro.exceptions import ReproError
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    current_tracer,
    use_tracer,
)


class TestSpanNesting:
    def test_children_attach_to_open_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                with tracer.span("leaf"):
                    pass
        (outer,) = tracer.roots
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]

    def test_sibling_roots_keep_start_order(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]

    def test_walk_is_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        assert [s.name for s in tracer.spans()] == ["a", "b", "c", "d"]

    def test_find_matches_by_name(self):
        tracer = Tracer()
        with tracer.span("loop"):
            for i in range(3):
                with tracer.span("iter", index=i):
                    pass
        assert len(tracer.find("iter")) == 3
        assert [s.attributes["index"] for s in tracer.find("iter")] == [0, 1, 2]

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer").__enter__()
        tracer.span("inner").__enter__()
        with pytest.raises(ReproError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_empty_name_rejected(self):
        with pytest.raises(ReproError, match="empty span name"):
            Tracer().span("")


class TestSpanData:
    def test_duration_covers_the_block(self):
        tracer = Tracer()
        with tracer.span("sleep") as span:
            time.sleep(0.01)
        assert span.duration_seconds >= 0.01

    def test_duration_before_finish_raises(self):
        tracer = Tracer()
        span = tracer.span("open")
        with pytest.raises(ReproError, match="not finished"):
            _ = span.duration_seconds

    def test_attributes_counters_events(self):
        tracer = Tracer()
        with tracer.span("work", kind="demo") as span:
            span.set(extra=1).inc("items", 5).inc("items")
            span.add_event("checkpoint", step=3)
        assert span.attributes == {"kind": "demo", "extra": 1}
        assert span.counters == {"items": 6}
        (event,) = span.events
        assert event["name"] == "checkpoint"
        assert event["step"] == 3
        assert event["offset_seconds"] >= 0

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("fails") as span:
                raise ValueError("boom")
        assert span.attributes["error"] == "ValueError"
        assert span.finished


class TestExports:
    def _sample_tracer(self) -> Tracer:
        tracer = Tracer()
        with tracer.span("root", machine="A"):
            with tracer.span("child") as child:
                child.inc("steps", 2)
        return tracer

    def test_jsonl_records_parents_and_depth(self):
        tracer = self._sample_tracer()
        records = [
            json.loads(line) for line in tracer.to_jsonl().splitlines()
        ]
        assert [r["name"] for r in records] == ["root", "child"]
        root, child = records
        assert root["parent"] is None and root["depth"] == 0
        assert child["parent"] == root["id"] and child["depth"] == 1
        assert child["counters"] == {"steps": 2}

    def test_chrome_round_trip(self):
        tracer = self._sample_tracer()
        document = json.loads(tracer.to_chrome())
        events = document["traceEvents"]
        assert [e["name"] for e in events] == ["root", "child"]
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
        root, child = events
        # The child's complete event nests inside the parent's window.
        assert root["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1e-3
        assert root["args"]["machine"] == "A"

    def test_write_picks_format_from_suffix(self, tmp_path):
        tracer = self._sample_tracer()
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        tracer.write(str(chrome))
        tracer.write(str(jsonl))
        assert "traceEvents" in json.loads(chrome.read_text())
        lines = jsonl.read_text().splitlines()
        assert len(lines) == 2 and all(json.loads(line) for line in lines)

    def test_non_json_attributes_are_stringified(self):
        tracer = Tracer()
        with tracer.span("odd", obj=object(), arr=(1, 2)):
            pass
        document = json.loads(tracer.to_chrome())
        args = document["traceEvents"][0]["args"]
        assert isinstance(args["obj"], str)
        assert args["arr"] == [1, 2]


class TestAmbientTracer:
    def test_default_is_the_null_tracer(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_tracer(Tracer()):
                raise RuntimeError("boom")
        assert current_tracer() is NULL_TRACER


class TestDisabledFastPath:
    def test_null_span_is_a_shared_singleton(self):
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b")
        assert tracer.span("a") is NULL_TRACER.span("c")

    def test_null_span_supports_the_full_surface(self):
        span = NULL_TRACER.span("noop")
        with span as inner:
            inner.set(x=1).inc("n").add_event("e")
        assert NULL_TRACER.find("noop") == ()
        assert list(NULL_TRACER.spans()) == []

    def test_disabled_overhead_is_negligible(self):
        # 200k no-op spans must be effectively free (they allocate
        # nothing and read no clocks) — generous ceiling for CI noise.
        tracer = NULL_TRACER
        started = time.perf_counter()
        for _ in range(200_000):
            with tracer.span("hot"):
                pass
        assert time.perf_counter() - started < 2.0


class TestSpanPayload:
    def test_open_span_refuses_to_serialize(self):
        tracer = Tracer()
        span = tracer.span("open")
        span.__enter__()
        with pytest.raises(ReproError, match="has not finished"):
            span.to_payload()
        span.__exit__(None, None, None)


class TestGraft:
    def test_graft_under_open_span(self):
        donor = Tracer()
        with donor.span("handler.root"):
            pass
        receiver = Tracer()
        with receiver.span("parent"):
            receiver.graft(donor.roots[0])
        (parent,) = receiver.roots
        assert [c.name for c in parent.children] == ["handler.root"]

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
