"""Unit contracts of the live-event plumbing (no sockets involved).

:class:`RunEventStream` ordering/replay/bounding/wakeups, and the tap
tracer that narrates engine stages and SOM epochs.  The HTTP face of the same machinery is covered in
``test_sse.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine import FunctionStage, PipelineEngine
from repro.obs import new_context, use_context, use_tracer
from repro.service.events import (
    DEFAULT_MAX_EVENTS,
    EventTapTracer,
    RunEventStream,
)


class TestRunEventStream:
    def test_emit_assigns_increasing_seq(self):
        stream = RunEventStream("svc-1")
        assert [stream.emit("a"), stream.emit("b"), stream.emit("c")] == [
            1,
            2,
            3,
        ]
        assert stream.last_seq == 3

    def test_events_after_replays_the_suffix(self):
        stream = RunEventStream("svc-1")
        for index in range(5):
            stream.emit("event", index=index)
        replay = stream.events_after(2)
        assert [seq for seq, _, _ in replay] == [3, 4, 5]
        assert [data["index"] for _, _, data in replay] == [2, 3, 4]
        assert stream.events_after(5) == []

    def test_close_is_terminal_and_idempotent(self):
        stream = RunEventStream("svc-1")
        stream.emit("a")
        stream.close()
        stream.close()
        assert stream.closed
        assert stream.emit("late") == 0
        assert stream.last_seq == 1

    def test_bounded_buffer_drops_oldest(self):
        stream = RunEventStream("svc-1", max_events=3)
        for index in range(5):
            stream.emit("event", index=index)
        assert stream.dropped == 2
        assert [seq for seq, _, _ in stream.events_after(0)] == [3, 4, 5]

    def test_default_bound(self):
        stream = RunEventStream("svc-1")
        assert stream._events.maxlen == DEFAULT_MAX_EVENTS

    def test_wakeups_fire_on_emit_and_close(self):
        stream = RunEventStream("svc-1")
        calls: list[str] = []
        stream.add_wakeup(lambda: calls.append("wake"))
        stream.emit("a")
        stream.close()
        assert calls == ["wake", "wake"]
        stream.remove_wakeup(lambda: None)  # unknown: ignored

    def test_removed_wakeup_stops_firing(self):
        stream = RunEventStream("svc-1")
        calls: list[str] = []
        wake = lambda: calls.append("wake")  # noqa: E731
        stream.add_wakeup(wake)
        stream.emit("a")
        stream.remove_wakeup(wake)
        stream.emit("b")
        assert calls == ["wake"]

    def test_concurrent_emitters_never_share_a_seq(self):
        stream = RunEventStream("svc-1", max_events=4096)
        errors: list[Exception] = []

        def hammer() -> None:
            try:
                for _ in range(200):
                    stream.emit("event")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        seqs = [seq for seq, _, _ in stream.events_after(0)]
        assert len(seqs) == len(set(seqs)) == 800
        assert seqs == sorted(seqs)


class TestEventTapTracer:
    def test_stage_span_emits_started_then_finished(self):
        stream = RunEventStream("svc-1")
        engine = PipelineEngine()
        stage = FunctionStage("x", lambda a: a + 1, inputs=("a",), outputs=("b",))
        with use_tracer(EventTapTracer(stream)):
            cold = engine.run([stage], {"a": 1}).report.stats_for("x")
            warm = engine.run([stage], {"a": 1}).report.stats_for("x")
        events = stream.events_after(0)
        assert [name for _, name, _ in events] == [
            "stage.started",
            "stage.finished",
        ] * 2
        for (_, _, started), (_, _, finished), stats in (
            (events[0], events[1], cold),
            (events[2], events[3], warm),
        ):
            assert started == {"stage": "x", "key": stats.key}
            assert finished == {
                "stage": "x",
                "cache_source": stats.cache_source,
                "cache_hit": stats.cache_hit,
                "wall_seconds": stats.wall_seconds,
            }
        assert (cold.cache_source, warm.cache_source) == ("compute", "memory")

    def test_raising_stage_emits_started_only(self):
        stream = RunEventStream("svc-1")

        def boom(a):
            raise ValueError("stage failed")

        stage = FunctionStage("x", boom, inputs=("a",), outputs=("b",))
        with use_tracer(EventTapTracer(stream)):
            with pytest.raises(ValueError):
                PipelineEngine().run([stage], {"a": 1})
        events = stream.events_after(0)
        assert [(name, data["stage"]) for _, name, data in events] == [
            ("stage.started", "x")
        ]

    def test_epoch_spans_emit_som_epoch_events(self):
        stream = RunEventStream("svc-1")
        tracer = EventTapTracer(stream)
        with tracer.span("som.fit"):
            with tracer.span("som.epoch", epoch=0) as epoch:
                epoch.inc("samples", 26)
            with tracer.span(
                "som.epoch", epoch=1, quantization_error=0.125
            ):
                pass
        events = stream.events_after(0)
        assert [name for _, name, _ in events] == ["som.epoch", "som.epoch"]
        first, second = (data for _, _, data in events)
        assert first["epoch"] == 0
        assert first["samples"] == 26
        assert "wall_seconds" in first
        assert second["quantization_error"] == pytest.approx(0.125)

    def test_qe_span_events_mirror_into_the_stream(self):
        stream = RunEventStream("svc-1")
        tracer = EventTapTracer(stream)
        with tracer.span("som.fit") as fit:
            fit.add_event("qe", step=3, value=0.5)
            fit.add_event("other", step=4)  # not mirrored
        events = stream.events_after(0)
        assert len(events) == 1
        _, name, data = events[0]
        assert name == "som.qe"
        assert data == {"step": 3, "value": 0.5}

    def test_still_a_recording_tracer_with_context_stamping(self):
        stream = RunEventStream("svc-1")
        tracer = EventTapTracer(stream)
        context = new_context()
        with use_context(context):
            with tracer.span("som.fit"):
                with tracer.span("som.epoch", epoch=0):
                    pass
        (fit,) = tracer.roots
        assert fit.name == "som.fit"
        assert [c.name for c in fit.children] == ["som.epoch"]
        assert {s.trace_id for s in tracer.spans()} == {context.trace_id}
        # Payload round-trip still works for grafting into a sink.
        assert fit.to_payload()["trace_id"] == context.trace_id

    def test_non_epoch_spans_do_not_emit(self):
        stream = RunEventStream("svc-1")
        tracer = EventTapTracer(stream)
        with tracer.span("pipeline.run"):
            with tracer.span("som.fit"):
                pass
        assert stream.events_after(0) == []
