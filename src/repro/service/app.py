""":class:`ScoringService` — the asyncio transport over the runtime.

This module owns everything request-shaped: routing, the per-key
**in-flight coalescing map**, bounded concurrency, structured request
logs, and graceful drain.

Coalescing: every validated ``/score`` and ``/analyze`` request is
reduced to a canonical key (see
:meth:`~repro.service.runtime.ServiceRuntime.request_key`).  The first
request for a key becomes the *leader*: it runs the computation on the
worker pool and the finished **response body bytes** resolve a shared
``asyncio.Task`` kept in ``_inflight``.  Concurrent *followers* for
the same key simply await that task, so identical work is computed
once and every caller receives byte-identical JSON.  The entry is
removed when the task resolves — later requests hit the warm engine
cache instead.

Drain: on SIGTERM (or :meth:`ScoringService.drain`) the listener
closes, requests still executing run to completion (responses are
written), idle keep-alive connections are dropped, and any async job
that cannot finish within the grace window is marked ``dropped`` with
its own ledger record — the ledger never loses track of submitted
work.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from repro.exceptions import ReproError
from repro.obs.context import TraceContext, current_context, new_context, use_context
from repro.obs.ledger import NullRecorder, RunRecorder, new_run_id, use_recorder
from repro.obs.log import fmt_kv, get_logger
from repro.obs.metrics import use_metrics
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, use_tracer
from repro.service.events import EventTapTracer, RunEventStream
from repro.service.http import (
    DEFAULT_MAX_BODY_BYTES,
    HttpError,
    HttpRequest,
    error_response,
    json_body,
    json_response,
    read_request,
    response_bytes,
    sse_frame,
    sse_head_bytes,
)
from repro.service.runtime import (
    JOB_DONE,
    JOB_DROPPED,
    JOB_FAILED,
    ServiceRuntime,
)
from repro.service.schemas import (
    ValidationError,
    validate_analyze_request,
    validate_score_request,
)

__all__ = ["ScoringService"]

_log = get_logger("service")

DEFAULT_PORT = 8311
DEFAULT_MAX_CONCURRENCY = 4
DEFAULT_DRAIN_GRACE = 30.0
DEFAULT_HEARTBEAT_SECONDS = 10.0

_JSON = "application/json"
_TEXT = "text/plain; version=0.0.4; charset=utf-8"


def _endpoint_label(path: str) -> str:
    """Collapse id-bearing paths to one telemetry label per endpoint.

    Without this, every ``/runs/{id}`` poll would mint its own
    histogram series and the registry would grow with traffic.
    """
    if path.startswith("/runs/"):
        return "/runs/{id}"
    if path.startswith("/events/"):
        return "/events/{run_id}"
    return path


class _Response:
    """One computed response plus the metadata the transport needs."""

    __slots__ = ("status", "body", "content_type", "keep_alive")

    def __init__(
        self,
        status: int,
        body: bytes,
        *,
        content_type: str = _JSON,
        keep_alive: bool = True,
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.keep_alive = keep_alive


class _SseHandoff:
    """A routed ``GET /events/{run_id}``: stream it instead of buffering."""

    __slots__ = ("stream", "after", "follow")

    def __init__(self, stream: RunEventStream, after: int, follow: bool) -> None:
        self.stream = stream
        self.after = after
        self.follow = follow


class ScoringService:
    """The daemon: asyncio server + coalescing + drain over a runtime."""

    def __init__(
        self,
        runtime: ServiceRuntime | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        max_body: int = DEFAULT_MAX_BODY_BYTES,
        drain_grace: float = DEFAULT_DRAIN_GRACE,
        trace_path: str | None = None,
        slow_request_ms: float | None = None,
        heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
    ) -> None:
        self.runtime = runtime if runtime is not None else ServiceRuntime()
        self.host = host
        self.port = port
        self.max_concurrency = max(1, int(max_concurrency))
        self.max_body = max_body
        self.drain_grace = drain_grace
        self.trace_path = trace_path
        self.slow_request_ms = slow_request_ms
        self.heartbeat_seconds = heartbeat_seconds
        self.draining = False
        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._semaphore: asyncio.Semaphore | None = None
        self._inflight: dict[str, _Inflight] = {}
        self._connections: set[asyncio.Task] = set()
        self._job_tasks: set[asyncio.Task] = set()
        self._busy_requests = 0
        self._queued_requests = 0
        self._stopped: asyncio.Event | None = None
        # Per-request analyze tracers graft into this daemon-lifetime
        # sink (worker threads serialize on the lock); drain writes it
        # to trace_path — the fix for `serve --trace` being ignored.
        self._trace_sink: Tracer | None = Tracer() if trace_path else None
        self._trace_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and open the compute thread pool.

        Nothing ambient is installed here: each compute thread installs
        the runtime's registry (with the request's context, recorder
        and tracer) around its own analysis, so two daemons in one
        process never share or restore each other's registry.
        """
        self._stopped = asyncio.Event()
        self._semaphore = asyncio.Semaphore(self.max_concurrency)
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_concurrency, thread_name_prefix="repro-service"
        )
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        _log.info(
            fmt_kv(
                "service.start",
                host=self.host,
                port=self.port,
                max_concurrency=self.max_concurrency,
                cache_dir=self.runtime.cache_dir,
            )
        )

    def install_signal_handlers(self) -> None:
        """Drain on SIGTERM/SIGINT (main-thread event loops only)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda s=sig: asyncio.ensure_future(self._on_signal(s))
                )
            except (NotImplementedError, RuntimeError, ValueError):
                # Not the main thread (ServiceThread) or no loop signal
                # support on this platform; tests drain explicitly.
                return

    async def _on_signal(self, sig: int) -> None:
        _log.info(fmt_kv("service.signal", signal=signal.Signals(sig).name))
        await self.drain()

    async def serve_forever(self) -> None:
        """Block until :meth:`drain` completes."""
        assert self._stopped is not None, "start() must run first"
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful shutdown: in-flight work finishes, the rest drops."""
        if self.draining:
            return
        self.draining = True
        _log.info(
            fmt_kv(
                "service.drain_begin",
                busy=self._busy_requests,
                jobs=len(self._job_tasks),
            )
        )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

        # Let executing requests and async jobs run to completion
        # (responses written, ledger records appended) within grace.
        deadline = time.monotonic() + self.drain_grace
        while time.monotonic() < deadline:
            if self._busy_requests == 0 and not self._job_tasks:
                break
            await asyncio.sleep(0.02)

        # Whatever survived the grace window is dropped — with a
        # ledger record per dropped job so no submitted work vanishes.
        job_tasks = list(self._job_tasks)
        for task in job_tasks:
            task.cancel()
        if job_tasks:
            await asyncio.gather(*job_tasks, return_exceptions=True)
        for job in self.runtime.jobs():
            if job.status not in (JOB_DONE, JOB_FAILED, JOB_DROPPED):
                self.runtime.finish_job(
                    job, status=JOB_DROPPED, error="dropped: server draining"
                )
                # A fresh recorder: the dropped job delivered nothing,
                # so its record carries no stages (its leader's compute
                # may still be feeding the job's own recorder).
                self.runtime.record_request(
                    self.runtime.recorder(job.endpoint, job.request),
                    exit_code=1,
                    run_id=job.run_id,
                    error="dropped: server draining",
                )

        # Shielded in-flight computations outlive their cancelled
        # callers; reap them so closing the loop destroys no live task.
        inflight = [entry.task for entry in self._inflight.values()]
        for task in inflight:
            task.cancel()
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)

        # Event streams end before their connections are cancelled, so
        # non-following SSE subscribers drain and exit cleanly.
        self.runtime.close_streams()

        # Idle keep-alive connections have nothing left to say.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

        if self._executor is not None:
            self._executor.shutdown(wait=False)
        if self._trace_sink is not None and self.trace_path:
            try:
                self._trace_sink.write(self.trace_path)
                _log.info(
                    fmt_kv(
                        "service.trace_written",
                        path=self.trace_path,
                        spans=sum(1 for _ in self._trace_sink.spans()),
                    )
                )
            except OSError as exc:
                _log.warning(
                    fmt_kv(
                        "service.trace_error",
                        path=self.trace_path,
                        error=str(exc),
                    )
                )
        _log.info(fmt_kv("service.drain_done"))
        if self._stopped is not None:
            self._stopped.set()

    # -- connection loop ---------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader, max_body=self.max_body)
                except HttpError as err:
                    status, body = error_response(err.status, err.detail)
                    writer.write(
                        response_bytes(status, body, keep_alive=False)
                    )
                    await writer.drain()
                    self._observe(err.status, "parse", 0.0)
                    break
                if request is None:
                    break
                context = self._request_context(request)
                trace_headers = {
                    "X-Repro-Run-Id": context.trace_id,
                    "traceparent": context.to_traceparent(),
                }
                started = time.perf_counter()
                self._busy_requests += 1
                self._set_gauges()
                try:
                    with use_context(context):
                        response = await self._dispatch(request)
                finally:
                    self._busy_requests -= 1
                    self._set_gauges()
                endpoint = _endpoint_label(request.path)
                if isinstance(response, _SseHandoff):
                    # The subscription itself is instant; the stream
                    # then runs for the life of the watched job.
                    self._observe(200, endpoint, 0.0, context=context)
                    await self._stream_events(writer, response, trace_headers)
                    break  # SSE connections are single-use
                writer.write(
                    response_bytes(
                        response.status,
                        response.body,
                        content_type=response.content_type,
                        keep_alive=response.keep_alive,
                        extra_headers=trace_headers,
                    )
                )
                await writer.drain()
                wall = time.perf_counter() - started
                self._observe(response.status, endpoint, wall, context=context)
                _log.info(
                    fmt_kv(
                        "service.request",
                        method=request.method,
                        path=request.path,
                        status=response.status,
                        wall_ms=round(wall * 1000.0, 3),
                        trace_id=context.trace_id,
                    )
                )
                if not response.keep_alive:
                    break
        except asyncio.CancelledError:
            pass  # drain killed an idle connection
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    def _request_context(request: HttpRequest) -> TraceContext:
        """This request's trace identity: adopted or freshly minted.

        A caller-supplied ``traceparent`` continues the caller's trace
        (same trace_id, fresh span id); a missing or malformed header
        starts a new one (malformed headers are ignored per the W3C
        trace-context rules rather than failing the request).
        """
        header = request.headers.get("traceparent")
        if header:
            try:
                return TraceContext.from_traceparent(header).child()
            except ReproError:
                pass
        return new_context()

    def _observe(
        self,
        status: int,
        endpoint: str,
        wall: float,
        *,
        context: TraceContext | None = None,
    ) -> None:
        registry = self.runtime.registry
        registry.counter(
            "service_requests_total", endpoint=endpoint, status=str(status)
        ).inc()
        trace_id = (
            context.trace_id if context is not None and context.sampled else None
        )
        registry.histogram(
            "service_request_seconds", endpoint=endpoint, status=str(status)
        ).observe(wall, trace_id=trace_id)
        if (
            self.slow_request_ms is not None
            and wall * 1000.0 >= self.slow_request_ms
        ):
            _log.warning(
                fmt_kv(
                    "service.slow_request",
                    endpoint=endpoint,
                    status=status,
                    wall_ms=round(wall * 1000.0, 3),
                    threshold_ms=self.slow_request_ms,
                    trace_id=trace_id,
                )
            )

    def _set_gauges(self) -> None:
        registry = self.runtime.registry
        registry.gauge("service_in_flight").set(self._busy_requests)
        registry.gauge("service_queue_depth").set(self._queued_requests)

    # -- server-sent events ------------------------------------------------

    async def _stream_events(
        self,
        writer: asyncio.StreamWriter,
        handoff: _SseHandoff,
        extra_headers: dict[str, str],
    ) -> None:
        """Write one run's event stream as SSE until it drains.

        Events already buffered (or everything past ``Last-Event-ID``
        on resume) replay immediately; afterwards the loop sleeps on a
        wakeup the stream fires from compute threads, emitting comment
        heartbeats when the run is quiet.  A closed stream ends the
        response unless the subscriber asked to ``follow`` (used by
        clients that want heartbeats after completion); server drain
        ends every stream.
        """
        stream = handoff.stream
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()

        def _wake() -> None:  # called from compute threads
            loop.call_soon_threadsafe(wake.set)

        stream.add_wakeup(_wake)
        try:
            writer.write(sse_head_bytes(extra_headers))
            if handoff.after and handoff.after < stream.dropped:
                writer.write(b": resume gap: oldest events dropped\n\n")
            last = handoff.after
            while True:
                batch = stream.events_after(last)
                for seq, name, data in batch:
                    writer.write(sse_frame(seq, name, data))
                    last = seq
                await writer.drain()
                if self.draining:
                    break
                if stream.closed and not stream.events_after(last):
                    if not handoff.follow:
                        break
                wake.clear()
                try:
                    await asyncio.wait_for(
                        wake.wait(), timeout=self.heartbeat_seconds
                    )
                except asyncio.TimeoutError:
                    writer.write(b": heartbeat\n\n")
                    await writer.drain()
        finally:
            stream.remove_wakeup(_wake)

    # -- routing -----------------------------------------------------------

    async def _dispatch(self, request: HttpRequest) -> "_Response | _SseHandoff":
        keep_alive = request.keep_alive
        if self.draining:
            status, body = error_response(
                503, "server is draining; retry against another instance"
            )
            return _Response(status, body, keep_alive=False)
        try:
            if request.path == "/healthz":
                self._require(request, "GET")
                status, body = json_response(
                    200,
                    self.runtime.health(
                        draining=self.draining, in_flight=self._busy_requests
                    ),
                )
            elif request.path == "/metricsz":
                self._require(request, "GET")
                text = self.runtime.registry.render_prometheus()
                return _Response(
                    200,
                    text.encode("utf-8"),
                    content_type=_TEXT,
                    keep_alive=keep_alive,
                )
            elif request.path.startswith("/runs/"):
                self._require(request, "GET")
                status, body = self._handle_run(request.path[len("/runs/"):])
            elif request.path.startswith("/events/"):
                self._require(request, "GET")
                return self._handle_events(request)
            elif request.path == "/score":
                self._require(request, "POST")
                status, body = await self._handle_score(request)
            elif request.path == "/analyze":
                self._require(request, "POST")
                status, body = await self._handle_analyze(request)
            else:
                raise HttpError(404, f"no route for {request.path!r}")
        except HttpError as err:
            status, body = error_response(err.status, err.detail)
            # Routing misses keep the connection; protocol damage
            # (truncated/oversize bodies) closes it.
            keep = err.status in (404, 405)
            return _Response(status, body, keep_alive=keep_alive and keep)
        except ValidationError as err:
            status, body = error_response(400, err.detail, field=err.field)
        except Exception as exc:  # never kill the connection loop
            _log.error(
                fmt_kv("service.error", path=request.path, error=repr(exc))
            )
            status, body = error_response(500, f"internal error: {exc}")
        return _Response(status, body, keep_alive=keep_alive)

    @staticmethod
    def _require(request: HttpRequest, method: str) -> None:
        if request.method != method:
            raise HttpError(
                405, f"{request.path} only supports {method}"
            )

    # -- endpoints ---------------------------------------------------------

    def _handle_run(self, run_id: str) -> tuple[int, bytes]:
        job = self.runtime.job(run_id)
        if job is None:
            raise HttpError(404, f"unknown run id {run_id!r}")
        return json_response(200, job.payload())

    def _handle_events(self, request: HttpRequest) -> _SseHandoff:
        """Resolve ``GET /events/{run_id}`` to its live stream.

        ``Last-Event-ID`` (standard SSE reconnect) or ``?after=N``
        resumes past already-delivered events; ``?follow=1`` keeps the
        connection open (heartbeating) after the run finishes.
        """
        run_id = request.path[len("/events/"):]
        stream = self.runtime.stream(run_id)
        if stream is None:
            raise HttpError(404, f"unknown run id {run_id!r}")
        resume = request.headers.get("last-event-id") or request.query.get(
            "after", ""
        )
        after = 0
        if resume:
            try:
                after = max(0, int(resume))
            except ValueError:
                raise HttpError(
                    400, f"malformed Last-Event-ID {resume!r}"
                ) from None
        follow = request.query.get("follow", "") in ("1", "true", "yes")
        return _SseHandoff(stream, after, follow)

    async def _handle_score(self, request: HttpRequest) -> tuple[int, bytes]:
        try:
            score_request = validate_score_request(json_body(request))
        except (HttpError, ValidationError):
            self._record_rejection("score")
            raise
        canonical = score_request.canonical()
        key = self.runtime.request_key("score", canonical)
        recorder = self.runtime.recorder("score", canonical)
        # Pre-minted so the leader's run id is known to followers the
        # moment the shared task exists (coalesced_with needs it).
        run_id = new_run_id("service:score")
        computed = await self._coalesce(
            key, lambda: self._compute_score(score_request), run_id=run_id
        )
        self.runtime.record_request(
            recorder,
            exit_code=0 if computed.status < 400 else 1,
            run_id=run_id,
            coalesced=not computed.leader,
            coalesced_with=None if computed.leader else computed.leader_run_id,
        )
        return computed.status, computed.body

    async def _handle_analyze(self, request: HttpRequest) -> tuple[int, bytes]:
        try:
            analyze_request = validate_analyze_request(json_body(request))
        except (HttpError, ValidationError):
            self._record_rejection("analyze")
            raise
        canonical = analyze_request.canonical()
        key = self.runtime.request_key("analyze", canonical)

        if not analyze_request.wait:
            job = self.runtime.create_job("analyze", canonical)
            task = asyncio.ensure_future(
                self._run_job(job, key, analyze_request)
            )
            self._job_tasks.add(task)
            task.add_done_callback(self._job_tasks.discard)
            return json_response(
                202,
                {
                    "schema": 1,
                    "kind": "service-run",
                    "run_id": job.run_id,
                    "status": job.status,
                    "poll": f"/runs/{job.run_id}",
                },
            )

        recorder = self.runtime.recorder("analyze", canonical)
        context = current_context()
        run_id = new_run_id("service:analyze")
        computed = await self._coalesce(
            key,
            lambda: self._compute_analyze(
                analyze_request, context=context, stream=None, recorder=recorder
            ),
            run_id=run_id,
        )
        self.runtime.record_request(
            recorder,
            exit_code=0 if computed.status < 400 else 1,
            run_id=run_id,
            coalesced=not computed.leader,
            coalesced_with=None if computed.leader else computed.leader_run_id,
        )
        return computed.status, computed.body

    async def _run_job(self, job, key: str, analyze_request) -> None:
        """Drive one async ``/analyze`` job through the coalescing map.

        The job's event stream, recorder and the submitting request's
        trace context ride into the compute closure explicitly —
        executor threads inherit none of them, and the coalescing
        leader's closure is the one that actually runs.
        """
        recorder = self.runtime.recorder(job.endpoint, job.request)
        stream = self.runtime.stream(job.run_id)
        context = current_context()
        try:
            computed = await self._coalesce(
                key,
                lambda: self._compute_analyze(
                    analyze_request,
                    context=context,
                    stream=stream,
                    recorder=recorder,
                ),
                run_id=job.run_id,
            )
        except asyncio.CancelledError:
            # Drain cancelled us; drain writes the dropped record.
            raise
        except Exception as exc:  # defensive: compute wraps its errors
            self.runtime.finish_job(job, status=JOB_FAILED, error=repr(exc))
            self.runtime.record_request(
                recorder,
                exit_code=1,
                run_id=job.run_id,
                error=repr(exc),
            )
            return
        if computed.status < 400:
            self.runtime.finish_job(
                job,
                status=JOB_DONE,
                result=json.loads(computed.body.decode("utf-8")),
            )
            error = None
        else:
            error = json.loads(computed.body.decode("utf-8"))["error"]["detail"]
            self.runtime.finish_job(job, status=JOB_FAILED, error=error)
        self.runtime.record_request(
            recorder,
            exit_code=0 if computed.status < 400 else 1,
            run_id=job.run_id,
            coalesced=not computed.leader,
            coalesced_with=None if computed.leader else computed.leader_run_id,
            error=error,
        )

    def _record_rejection(self, endpoint: str) -> None:
        self.runtime.record_request(
            self.runtime.recorder(endpoint, {}),
            exit_code=1,
            error="request rejected by validation",
        )

    # -- coalescing --------------------------------------------------------

    async def _coalesce(
        self, key: str, compute: Callable[[], _Response], *, run_id: str | None = None
    ) -> "_Computed":
        """Run ``compute`` once per key; everyone gets the same bytes.

        The first caller for a key creates the shared task (the
        *leader*); concurrent callers await the same task and receive
        the identical response object.  ``asyncio.shield`` keeps one
        cancelled follower from killing the computation for everyone.
        The leader's ``run_id`` is pinned on the in-flight entry at
        creation, so every follower can stamp ``coalesced_with`` on
        its own ledger record without waiting for the leader to
        record first.
        """
        entry = self._inflight.get(key)
        leader = entry is None
        if entry is None:
            task = asyncio.ensure_future(self._bounded_compute(compute))
            entry = _Inflight(task, run_id)
            self._inflight[key] = entry
            task.add_done_callback(
                lambda _t, _key=key: self._inflight.pop(_key, None)
            )
        response = await asyncio.shield(entry.task)
        return _Computed(response, leader, entry.run_id)

    async def _bounded_compute(
        self, compute: Callable[[], _Response]
    ) -> _Response:
        assert self._semaphore is not None and self._executor is not None
        self._queued_requests += 1
        self._set_gauges()
        try:
            await self._semaphore.acquire()
        finally:
            self._queued_requests -= 1
            self._set_gauges()
        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(self._executor, compute)
        finally:
            self._semaphore.release()

    # -- compute (worker threads) -----------------------------------------

    def _compute_score(self, score_request) -> _Response:
        try:
            payload = self.runtime.score(score_request)
        except ReproError as exc:
            status, body = error_response(400, str(exc))
            return _Response(status, body)
        except Exception as exc:
            _log.error(fmt_kv("service.score_error", error=repr(exc)))
            status, body = error_response(500, f"internal error: {exc}")
            return _Response(status, body)
        status, body = json_response(200, payload)
        return _Response(status, body)

    def _compute_analyze(
        self,
        analyze_request,
        *,
        context: TraceContext | None,
        stream: RunEventStream | None,
        recorder: RunRecorder | NullRecorder,
    ) -> _Response:
        """Run one analyze on a worker thread with observability installed.

        The originating request's trace context, its ledger recorder
        (:data:`~repro.obs.ledger.NULL_RECORDER` without a ledger), the
        runtime's metrics registry and (when the job streams or the
        daemon traces) a per-request tracer are installed ambiently
        *inside this thread* — the engine and the SOM pick them up via
        their ContextVars, so the engine feeds this request's recorder
        exactly this run's stages and ``/metricsz`` its instruments.
        The tracer is an :class:`EventTapTracer` when a stream wants
        live stage and SOM progress.
        """
        tracer: Tracer | NullTracer = NULL_TRACER
        if stream is not None:
            tracer = EventTapTracer(stream)
        elif self._trace_sink is not None:
            tracer = Tracer()
        try:
            with (
                use_context(context),
                use_recorder(recorder),
                use_metrics(self.runtime.registry),
                use_tracer(tracer),
            ):
                payload = self.runtime.analyze(analyze_request)
        except ReproError as exc:
            status, body = error_response(400, str(exc))
            response = _Response(status, body)
        except Exception as exc:
            _log.error(fmt_kv("service.analyze_error", error=repr(exc)))
            status, body = error_response(500, f"internal error: {exc}")
            response = _Response(status, body)
        else:
            status, body = json_response(200, payload)
            response = _Response(status, body)
        self._absorb_trace(tracer)
        return response

    def _absorb_trace(self, tracer: Tracer | NullTracer) -> None:
        """Graft one request's finished spans into the daemon trace sink."""
        if self._trace_sink is None:
            return
        with self._trace_lock:
            for root in tracer.roots:
                if root.finished:
                    self._trace_sink.graft(root)


class _Inflight:
    """One coalesced in-flight computation: shared task + leader run id."""

    __slots__ = ("task", "run_id")

    def __init__(self, task: asyncio.Task, run_id: str | None) -> None:
        self.task = task
        self.run_id = run_id


class _Computed:
    """A coalesced result: the shared response plus this caller's role."""

    __slots__ = ("status", "body", "leader", "leader_run_id")

    def __init__(
        self, response: _Response, leader: bool, leader_run_id: str | None
    ) -> None:
        self.status = response.status
        self.body = response.body
        self.leader = leader
        self.leader_run_id = leader_run_id
