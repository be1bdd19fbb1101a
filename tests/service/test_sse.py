"""The HTTP face of live observability: ``GET /events/{run_id}``.

Async ``/analyze`` progress must be watchable in real time — ordered
stage events ending in a ``run.finished`` that agrees with the polled
job — with SSE resume semantics, trace-context headers on every
response, ``coalesced_with`` back-links in the ledger, the slow-request
log, latency exemplars on ``/metricsz``, and the ``serve --trace``
sink written at drain.
"""

from __future__ import annotations

import http.client
import json
import logging
import socket
import threading
import time

import pytest

from repro.service import ServiceRuntime, ServiceThread

TRACE_ID = "ab" * 16
TRACEPARENT = f"00-{TRACE_ID}-{'cd' * 8}-01"


def _submit_async_analyze(client, payload=None):
    status, body = client.analyze({**(payload or {}), "wait": False})
    assert status == 202
    return body["run_id"]


def _drain_events(client, run_id, **kwargs):
    return list(client.events(run_id, **kwargs))


SCORE_BODY = json.dumps(
    {
        "measurements": {
            "A": {"x": 2.0, "y": 4.0},
            "B": {"x": 1.0, "y": 2.0},
        },
        "partition": [["x"], ["y"]],
    }
).encode("utf-8")


def _collect_lines(response, lines):
    """Append ``(arrival time, line)`` until the stream is shut down."""
    try:
        for raw in response:
            lines.append((time.monotonic(), raw.decode("utf-8").rstrip("\n")))
    except (OSError, ValueError):
        pass  # the test shut the socket down mid-read


class TestEventStreamEndpoint:
    def test_async_analyze_streams_ordered_events_to_done(
        self, service_client
    ):
        run_id = _submit_async_analyze(service_client)
        events = _drain_events(service_client, run_id)

        seqs = [e.seq for e in events]
        assert seqs == list(range(1, len(seqs) + 1))

        assert events[0].name == "run.started"
        assert events[0].data["run_id"] == run_id
        assert events[-1].name == "run.finished"
        assert events[-1].data["run_id"] == run_id

        # Per-stage progress arrived, started-before-finished per stage.
        names = [e.name for e in events]
        assert "stage.started" in names and "stage.finished" in names
        for event in events:
            if event.name == "stage.finished":
                stage = event.data["stage"]
                started_at = next(
                    i
                    for i, e in enumerate(events)
                    if e.name == "stage.started" and e.data["stage"] == stage
                )
                assert started_at < events.index(event)
        # SOM training narrated its epochs.
        assert "som.epoch" in names

        # The final event agrees with the polled job.
        status, job = service_client.run(run_id)
        assert status == 200
        assert job["status"] == "done"
        assert events[-1].data["status"] == "done"

    def test_last_event_id_resumes_past_delivered_events(
        self, service_client
    ):
        run_id = _submit_async_analyze(service_client)
        events = _drain_events(service_client, run_id)
        assert len(events) > 3
        cut = events[len(events) // 2].seq
        resumed = _drain_events(service_client, run_id, after=cut)
        assert [e.seq for e in resumed] == [
            e.seq for e in events if e.seq > cut
        ]
        assert resumed[-1].name == "run.finished"

    def test_resume_past_the_end_yields_nothing(self, service_client):
        run_id = _submit_async_analyze(service_client)
        events = _drain_events(service_client, run_id)
        assert _drain_events(
            service_client, run_id, after=events[-1].seq
        ) == []

    def test_unknown_run_id_is_404(self, service_client):
        with pytest.raises(RuntimeError, match="404"):
            next(service_client.events("no-such-run"))
        status, _ = service_client.request("GET", "/events/no-such-run")
        assert status == 404

    def test_malformed_last_event_id_is_400(self, service_client):
        run_id = _submit_async_analyze(service_client)
        status, body = service_client.request(
            "GET",
            f"/events/{run_id}",
            headers={"Last-Event-ID": "not-a-number"},
        )
        assert status == 400
        assert b"Last-Event-ID" in body
        _drain_events(service_client, run_id)  # let the job finish

    def test_follow_keeps_the_stream_open_with_heartbeats(self, tmp_path):
        """A follow subscriber idles on heartbeats while /score runs.

        Subscribed past a finished run's last event, the stream carries
        only comment heartbeats, at the heartbeat rate: the follow loop
        neither spins nor wakes on ``/score`` traffic riding the same
        event loop, and that traffic answers byte-identically.
        """
        heartbeat_seconds = 0.05
        runtime = ServiceRuntime(cache_dir=str(tmp_path / "cache"))
        with ServiceThread(
            runtime=runtime, heartbeat_seconds=heartbeat_seconds
        ) as server:
            client = server.client()
            run_id = _submit_async_analyze(client)
            # Run to completion, then subscribe past its last event.
            last_seq = _drain_events(client, run_id)[-1].seq

            subscriber = http.client.HTTPConnection(
                server.host, server.port, timeout=10.0
            )
            subscriber.connect()
            subscriber_socket = subscriber.sock
            started = time.monotonic()
            subscriber.request(
                "GET", f"/events/{run_id}?follow=1&after={last_seq}"
            )
            response = subscriber.getresponse()
            assert response.status == 200
            lines: list[tuple[float, str]] = []
            reader = threading.Thread(
                target=_collect_lines, args=(response, lines), daemon=True
            )
            reader.start()
            scorer = http.client.HTTPConnection(
                server.host, server.port, timeout=10.0
            )
            bodies = set()
            try:
                for _ in range(100):
                    scorer.request("POST", "/score", body=SCORE_BODY)
                    reply = scorer.getresponse()
                    assert reply.status == 200
                    bodies.add(reply.read())
                deadline = time.monotonic() + 5.0
                while not lines and time.monotonic() < deadline:
                    time.sleep(heartbeat_seconds)
                stopped = time.monotonic()
            finally:
                subscriber_socket.shutdown(socket.SHUT_RDWR)
                reader.join(timeout=10.0)
                subscriber.close()
                scorer.close()

        assert not reader.is_alive()
        assert len(bodies) == 1
        seen = [line for at, line in lines if at <= stopped and line]
        assert seen and set(seen) == {": heartbeat"}
        assert len(seen) <= (stopped - started) / heartbeat_seconds + 2


class TestTraceHeaders:
    def test_every_response_carries_trace_identity(self, service_client):
        status, _, headers = service_client.request_with_headers(
            "GET", "/healthz"
        )
        assert status == 200
        assert len(headers["x-repro-run-id"]) == 32
        int(headers["x-repro-run-id"], 16)
        version, trace_id, span_id, flags = headers["traceparent"].split("-")
        assert (version, flags) == ("00", "01")
        assert trace_id == headers["x-repro-run-id"]

    def test_caller_traceparent_is_adopted(self, service_client):
        _, _, headers = service_client.request_with_headers(
            "GET", "/healthz", headers={"traceparent": TRACEPARENT}
        )
        assert headers["x-repro-run-id"] == TRACE_ID
        _, trace_id, span_id, _ = headers["traceparent"].split("-")
        assert trace_id == TRACE_ID
        assert span_id != "cd" * 8  # fresh span id per hop

    def test_malformed_traceparent_starts_a_fresh_trace(
        self, service_client
    ):
        _, _, headers = service_client.request_with_headers(
            "GET", "/healthz", headers={"traceparent": "garbage"}
        )
        assert len(headers["x-repro-run-id"]) == 32
        assert headers["x-repro-run-id"] != TRACE_ID

    def test_trace_id_lands_in_the_ledger_record(self, service_server):
        client = service_server.client()
        status, _ = client.request(
            "POST",
            "/analyze",
            json.dumps({}).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "traceparent": TRACEPARENT,
            },
        )
        assert status == 200
        records = [
            r
            for r in service_server.runtime.ledger.records()
            if r["command"] == "service:analyze"
        ]
        assert records and records[-1]["trace_id"] == TRACE_ID
        # The stored trace id resolves the run by prefix lookup.
        found = service_server.runtime.ledger.find(TRACE_ID[:12])
        assert found["run_id"] == records[-1]["run_id"]


class TestCoalescedWith:
    def test_follower_record_links_to_the_leader_run(self, service_server):
        client = service_server.client()
        leader = _submit_async_analyze(client)
        follower = _submit_async_analyze(client)
        assert follower != leader
        _drain_events(client, leader)
        _drain_events(client, follower)
        # Both jobs reach "done"; wait for both ledger records.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            records = {
                r["run_id"]: r
                for r in service_server.runtime.ledger.records()
                if r["command"] == "service:analyze"
            }
            if leader in records and follower in records:
                break
            time.sleep(0.05)
        assert records[leader].get("coalesced_with") is None
        assert records[follower]["coalesced_with"] == leader

    def test_follower_stream_still_reports_lifecycle(self, service_server):
        client = service_server.client()
        leader = _submit_async_analyze(client)
        follower = _submit_async_analyze(client)
        events = _drain_events(client, follower)
        assert events[0].name == "run.started"
        assert events[-1].name == "run.finished"
        assert events[-1].data["status"] == "done"
        _drain_events(client, leader)


class TestServiceTelemetry:
    def test_gauges_and_latency_series_are_exported(self, service_client):
        service_client.health()
        status, text = service_client.metrics_text()
        assert status == 200
        assert "service_in_flight" in text
        assert "service_queue_depth" in text
        assert 'service_request_seconds{endpoint="/healthz"' in text

    def test_slow_outliers_carry_a_trace_id_exemplar(self, service_client):
        status, _ = service_client.request(
            "POST",
            "/analyze",
            json.dumps({}).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "traceparent": TRACEPARENT,
            },
        )
        assert status == 200
        _, text = service_client.metrics_text()
        exemplar_lines = [
            line
            for line in text.splitlines()
            if f'# {{trace_id="{TRACE_ID}"}}' in line
        ]
        assert exemplar_lines, "worst-latency exemplar missing from /metricsz"
        assert any('quantile="1"' in line for line in exemplar_lines)

    def test_slow_request_log_fires_past_threshold(self, tmp_path):
        captured: list[logging.LogRecord] = []

        class _Capture(logging.Handler):
            def emit(self, record: logging.LogRecord) -> None:
                captured.append(record)

        handler = _Capture(level=logging.WARNING)
        logger = logging.getLogger("repro.service")
        logger.addHandler(handler)
        try:
            runtime = ServiceRuntime(cache_dir=str(tmp_path / "cache"))
            with ServiceThread(
                runtime=runtime, slow_request_ms=0.0
            ) as server:
                client = server.client()
                client.request(
                    "GET", "/healthz", headers={"traceparent": TRACEPARENT}
                )
        finally:
            logger.removeHandler(handler)
        slow = [
            r.getMessage()
            for r in captured
            if "service.slow_request" in r.getMessage()
        ]
        assert slow, "no structured slow-request log emitted"
        assert any(TRACE_ID in message for message in slow)
        assert any("endpoint=/healthz" in message for message in slow)


class TestServeTraceSink:
    def test_request_spans_are_written_on_drain(self, tmp_path):
        trace_path = tmp_path / "service-trace.jsonl"
        runtime = ServiceRuntime(cache_dir=str(tmp_path / "cache"))
        server = ServiceThread(
            runtime=runtime, trace_path=str(trace_path)
        ).start()
        try:
            client = server.client()
            status, _ = client.request(
                "POST",
                "/analyze",
                json.dumps({}).encode("utf-8"),
                headers={
                    "Content-Type": "application/json",
                    "traceparent": TRACEPARENT,
                },
            )
            assert status == 200
        finally:
            server.stop()
        assert trace_path.exists(), "drain did not write the trace sink"
        spans = [
            json.loads(line)
            for line in trace_path.read_text(encoding="utf-8").splitlines()
        ]
        assert spans

        def _walk(payload):
            yield payload
            for child in payload.get("children") or ():
                yield from _walk(child)

        flat = [s for root in spans for s in _walk(root)]
        assert any(s["name"] == "pipeline.run" for s in flat)
        assert {s.get("trace_id") for s in flat} == {TRACE_ID}
