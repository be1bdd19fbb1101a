"""Per-run live progress events: the source the SSE endpoint streams.

A long ``/analyze`` over a big suite used to be a black box until its
ledger record appeared.  This module makes the run observable *while
it executes*: the runtime gives every async job a bounded
:class:`RunEventStream`, the request's :class:`EventTapTracer` fans
the engine's stage spans and the SOM's span activity into it from the
compute thread, and ``GET /events/{run_id}`` (see
:mod:`repro.service.app`) replays and follows it over Server-Sent
Events.

Two cooperating pieces:

* :class:`RunEventStream` — a thread-safe, bounded, sequence-numbered
  event log with replay (``events_after``) for ``Last-Event-ID``
  resume and thread-to-loop wakeups for live followers.  Bounded by
  ``max_events``: a runaway producer overwrites the oldest events
  (tracked in ``dropped``) instead of growing without limit.
* :class:`EventTapTracer` — a recording :class:`~repro.obs.trace.Tracer`,
  installed ambiently for one request, whose spans narrate the run:
  ``stage.*`` spans become ``stage.started`` / ``stage.finished``
  events, ``som.epoch`` completions (epoch index, wall, opt-in
  quantization error) and ``qe`` quality samples become ``som.epoch``
  / ``som.qe`` events.  The tracer is per request, so one shared
  engine serving concurrent requests attributes each stage to the run
  that executed it.

Event payloads are JSON-safe dicts; the SSE layer serializes them with
sorted keys so a resumed consumer sees byte-identical frames.
"""

from __future__ import annotations

import contextlib
import threading
from collections import deque
from typing import Any, Callable

from repro.exceptions import ReproError
from repro.obs.trace import Span, Tracer

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "DEFAULT_MAX_EVENTS",
    "RunEventStream",
    "EventTapTracer",
]

EVENT_SCHEMA_VERSION = 1

# Events retained per run for replay.  A full analyze pipeline emits
# ~2 events per stage plus one per SOM epoch — hundreds, not tens of
# thousands — so this bounds memory without losing real runs.
DEFAULT_MAX_EVENTS = 1024


class RunEventStream:
    """A bounded, replayable, sequence-numbered event log for one run.

    Producers (tap tracers on compute threads) call :meth:`emit`;
    consumers (SSE handlers on the event loop) read
    :meth:`events_after` and register a wakeup callable to learn about
    new events without polling.  :meth:`close` marks the stream
    terminal — consumers drain what remains and stop.
    """

    def __init__(
        self, run_id: str, *, max_events: int = DEFAULT_MAX_EVENTS
    ) -> None:
        self.run_id = run_id
        self._events: deque[tuple[int, str, dict[str, Any]]] = deque(
            maxlen=max(1, int(max_events))
        )
        self._next_seq = 1
        self._dropped = 0
        self._closed = False
        self._lock = threading.Lock()
        self._wakeups: list[Callable[[], None]] = []

    # -- producing ---------------------------------------------------------

    def emit(self, name: str, **data: Any) -> int:
        """Append one event; returns its sequence number (0 if closed)."""
        with self._lock:
            if self._closed:
                return 0
            seq = self._next_seq
            self._next_seq += 1
            if len(self._events) == self._events.maxlen:
                self._dropped += 1
            self._events.append((seq, name, data))
            wakeups = list(self._wakeups)
        for wake in wakeups:
            wake()
        return seq

    def close(self) -> None:
        """Mark the stream terminal and wake every follower (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            wakeups = list(self._wakeups)
        for wake in wakeups:
            wake()

    # -- consuming ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once the run has finished (no further events)."""
        with self._lock:
            return self._closed

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest event (0 when empty)."""
        with self._lock:
            return self._next_seq - 1

    @property
    def dropped(self) -> int:
        """Events lost to the bound (a resume may have a gap this size)."""
        with self._lock:
            return self._dropped

    def events_after(self, seq: int) -> list[tuple[int, str, dict[str, Any]]]:
        """Every retained event with a sequence number above ``seq``."""
        with self._lock:
            return [e for e in self._events if e[0] > seq]

    def add_wakeup(self, wake: Callable[[], None]) -> None:
        """Register a zero-arg callable invoked on emit/close.

        The callable must be thread-safe — producers run on compute
        threads (SSE handlers pass ``loop.call_soon_threadsafe``).
        """
        with self._lock:
            self._wakeups.append(wake)

    def remove_wakeup(self, wake: Callable[[], None]) -> None:
        """Unregister a wakeup (missing callables are ignored)."""
        with self._lock:
            with contextlib.suppress(ValueError):
                self._wakeups.remove(wake)

    def __repr__(self) -> str:
        return (
            f"RunEventStream({self.run_id!r}, events={self.last_seq}, "
            f"closed={self.closed})"
        )


class _TapSpan(Span):
    """A span that mirrors its ``qe`` quality samples into the stream."""

    __slots__ = ()

    def add_event(self, name: str, **attributes: Any) -> "Span":
        super().add_event(name, **attributes)
        stream = self._tracer._stream  # type: ignore[union-attr]
        if name == "qe":
            stream.emit("som.qe", **attributes)
        return self


class EventTapTracer(Tracer):
    """A recording tracer that narrates a run as it happens.

    Behaves exactly like :class:`~repro.obs.trace.Tracer` (spans are
    recorded, trace-context stamping applies, the finished forest can
    be grafted or exported) and *additionally* emits:

    * ``stage.started`` — when a ``stage.*`` span opens: stage name and
      cache key (the engine opens each stage span with both);
    * ``stage.finished`` — when that span closes cleanly: cache source,
      cache hit and the span's wall seconds.  A stage that raises
      closes with an ``error`` attribute and emits nothing;
    * ``som.epoch`` — when an epoch span closes: epoch index, wall
      seconds, quantization error when the span tracked one, and the
      pruning counters the span carries;
    * ``som.qe`` — each quality-history sample the SOM records.
    """

    def __init__(self, stream: RunEventStream) -> None:
        super().__init__()
        self._stream = stream

    def span(self, name: str, **attributes: Any) -> Span:
        if not name:
            raise ReproError("Tracer.span: empty span name")
        return _TapSpan(self, name, attributes)

    def _push(self, span: Span) -> None:
        super()._push(span)
        if span.name.startswith("stage."):
            attributes = span.attributes
            self._stream.emit(
                "stage.started",
                stage=attributes.get("stage"),
                key=attributes.get("key"),
            )

    def _pop(self, span: Span) -> None:
        super()._pop(span)
        if span.name.startswith("stage."):
            attributes = span.attributes
            if "error" not in attributes:
                self._stream.emit(
                    "stage.finished",
                    stage=attributes.get("stage"),
                    cache_source=attributes.get("cache_source"),
                    cache_hit=attributes.get("cache_hit"),
                    wall_seconds=span.duration_seconds,
                )
            return
        if span.name != "som.epoch":
            return
        data: dict[str, Any] = {}
        for field in ("epoch", "quantization_error", "sigma"):
            value = span.attributes.get(field)
            if value is not None:
                data[field] = value
        if span.counters:
            data.update(span.counters)
        if span.end_seconds is not None:
            data["wall_seconds"] = span.end_seconds - span.start_seconds
        self._stream.emit("som.epoch", **data)
