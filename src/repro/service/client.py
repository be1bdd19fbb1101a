"""A tiny blocking client and an in-process server harness.

:class:`ServiceClient` wraps :mod:`http.client` so tests, benchmarks
and scripts can hit a daemon without growing a dependency.  It exposes
both parsed-JSON helpers (:meth:`score`, :meth:`analyze`) and a raw
:meth:`request` returning status + exact body bytes — the latter is
what the byte-identity tests compare.

:class:`ServiceThread` runs a full :class:`ScoringService` on its own
event loop in a daemon thread, bound to an ephemeral port.  It is the
service-level test fixture::

    with ServiceThread(runtime=ServiceRuntime(...)) as server:
        client = server.client()
        status, payload = client.analyze({})
"""

from __future__ import annotations

import asyncio
import contextvars
import http.client
import json
import threading
from typing import Any, Iterator

from repro.service.app import ScoringService
from repro.service.runtime import ServiceRuntime

__all__ = ["ServiceClient", "ServiceThread", "SseEvent"]


class SseEvent:
    """One parsed Server-Sent Event: sequence id, name, JSON data."""

    __slots__ = ("seq", "name", "data")

    def __init__(self, seq: int, name: str, data: dict[str, Any]) -> None:
        self.seq = seq
        self.name = name
        self.data = data

    def __repr__(self) -> str:
        return f"SseEvent({self.seq}, {self.name!r}, {self.data!r})"


class ServiceClient:
    """Blocking JSON-over-HTTP client for one service instance."""

    def __init__(
        self, host: str, port: int, *, timeout: float | None = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        *,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes]:
        """One exchange; returns (status, exact body bytes)."""
        status, response_body, _headers = self.request_with_headers(
            method, path, body, headers=headers
        )
        return status, response_body

    def request_with_headers(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        *,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        """One exchange; returns (status, body bytes, response headers).

        Header names are lowercased, matching how the service parses
        incoming ones — ``headers["x-repro-run-id"]`` is the request's
        trace id.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                method, path, body=body, headers=headers or {}
            )
            response = connection.getresponse()
            response_headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            return response.status, response.read(), response_headers
        finally:
            connection.close()

    def events(
        self,
        run_id: str,
        *,
        after: int = 0,
        follow: bool = False,
        headers: dict[str, str] | None = None,
    ) -> Iterator[SseEvent]:
        """Stream ``GET /events/{run_id}`` as parsed :class:`SseEvent`s.

        Yields until the server closes the stream (the run finished)
        or the socket times out.  ``after`` resumes past
        already-delivered events (sent as ``Last-Event-ID``);
        ``follow`` asks the server to keep the stream open after the
        run completes.  Comment frames (heartbeats) are skipped.
        """
        path = f"/events/{run_id}"
        if follow:
            path += "?follow=1"
        request_headers = dict(headers or {})
        if after:
            request_headers["Last-Event-ID"] = str(after)
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("GET", path, headers=request_headers)
            response = connection.getresponse()
            if response.status != 200:
                detail = response.read().decode("utf-8", "replace").strip()
                raise RuntimeError(
                    f"events stream failed: {response.status} {detail}"
                )
            seq = 0
            name = ""
            data = ""
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n").rstrip("\r")
                if not line:  # frame boundary
                    if name:
                        yield SseEvent(seq, name, json.loads(data or "{}"))
                    seq, name, data = 0, "", ""
                    continue
                if line.startswith(":"):
                    continue  # comment / heartbeat
                field, _, value = line.partition(":")
                value = value.removeprefix(" ")
                if field == "id":
                    seq = int(value)
                elif field == "event":
                    name = value
                elif field == "data":
                    data = data + value if data else value
        finally:
            connection.close()

    def post_json(self, path: str, payload: Any) -> tuple[int, bytes]:
        """POST a JSON body; returns (status, exact body bytes)."""
        body = json.dumps(payload).encode("utf-8")
        return self.request(
            "POST", path, body, headers={"Content-Type": "application/json"}
        )

    def get_json(self, path: str) -> tuple[int, Any]:
        """GET and parse a JSON body; returns (status, parsed payload)."""
        status, body = self.request("GET", path)
        return status, json.loads(body.decode("utf-8"))

    def score(self, payload: Any) -> tuple[int, Any]:
        """``POST /score``; returns (status, parsed payload)."""
        status, body = self.post_json("/score", payload)
        return status, json.loads(body.decode("utf-8"))

    def analyze(self, payload: Any) -> tuple[int, Any]:
        """``POST /analyze``; returns (status, parsed payload)."""
        status, body = self.post_json("/analyze", payload)
        return status, json.loads(body.decode("utf-8"))

    def health(self) -> tuple[int, Any]:
        """``GET /healthz``; returns (status, parsed payload)."""
        return self.get_json("/healthz")

    def metrics_text(self) -> tuple[int, str]:
        """``GET /metricsz``; returns (status, Prometheus text)."""
        status, body = self.request("GET", "/metricsz")
        return status, body.decode("utf-8")

    def run(self, run_id: str) -> tuple[int, Any]:
        """``GET /runs/{id}``; returns (status, parsed job payload)."""
        return self.get_json(f"/runs/{run_id}")


class ServiceThread:
    """A :class:`ScoringService` on its own loop in a daemon thread.

    Binds port 0 by default so parallel test runs never collide; the
    resolved port is available after :meth:`start` (or ``__enter__``).
    ``stop()`` drains the service on its loop and joins the thread.
    """

    def __init__(
        self,
        runtime: ServiceRuntime | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrency: int = 4,
        drain_grace: float = 10.0,
        **service_kwargs: Any,
    ) -> None:
        self.service = ScoringService(
            runtime,
            host=host,
            port=port,
            max_concurrency=max_concurrency,
            drain_grace=drain_grace,
            **service_kwargs,
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def runtime(self) -> ServiceRuntime:
        return self.service.runtime

    @property
    def host(self) -> str:
        return self.service.host

    @property
    def port(self) -> int:
        return self.service.port

    def client(self, *, timeout: float = 60.0) -> ServiceClient:
        """A :class:`ServiceClient` bound to this server's address."""
        return ServiceClient(self.host, self.port, timeout=timeout)

    def start(self) -> "ServiceThread":
        """Start the loop thread; returns once the port is bound.

        The loop runs in a copy of the caller's context, so the service
        sees the tracer the caller installed (see ``ScoringService.start``).
        """
        context = contextvars.copy_context()
        self._thread = threading.Thread(
            target=context.run,
            args=(self._run,),
            name="repro-service-loop",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError(
                "service failed to start"
            ) from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("service did not start within 30s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            try:
                loop.run_until_complete(self.service.start())
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            loop.run_until_complete(self.service.serve_forever())
        finally:
            loop.close()
            asyncio.set_event_loop(None)

    def stop(self) -> None:
        """Drain on the service loop and join the thread."""
        loop = self._loop
        thread = self._thread
        if loop is None or thread is None:
            return
        if thread.is_alive() and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(
                self.service.drain(), loop
            )
            try:
                future.result(timeout=self.service.drain_grace + 30.0)
            except Exception:
                pass
        thread.join(timeout=30.0)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
