"""Nestable tracing spans with JSONL and Chrome ``trace_event`` export.

A :class:`Tracer` records a tree of timed spans::

    tracer = Tracer()
    with tracer.span("som.fit", mode="sequential") as fit:
        for epoch in range(epochs):
            with tracer.span("som.epoch", epoch=epoch):
                ...
        fit.set(final_qe=qe)

Each span carries wall time (``perf_counter`` based), free-form
attributes, monotonic counters (:meth:`Span.inc`) and point-in-time
events (:meth:`Span.add_event` — e.g. the SOM's quantization-error
samples), plus parent/child structure.  Finished traces export as

* **JSONL** — one JSON object per span, depth-first, with ``parent``
  references (:meth:`Tracer.to_jsonl`);
* **Chrome trace_event** — loadable in ``chrome://tracing`` / Perfetto
  (:meth:`Tracer.to_chrome`).

Tracing is *ambient*: library code asks :func:`current_tracer` for the
installed tracer and the default is :data:`NULL_TRACER`, whose
``span()`` hands back one shared no-op span — the disabled path does
no allocation and no clock reads, so leaving trace calls in hot code
is free.  Install a real tracer for one region with :func:`use_tracer`
(the CLI does this when ``--trace`` is given).  The ambient slot is a
:class:`contextvars.ContextVar`, so concurrent request handlers (the
scoring service runs them on a thread pool) can each install their own
tracer without racing over a process global.

When a :class:`~repro.obs.context.TraceContext` is ambient (see
:mod:`repro.obs.context`), every span opened while it is installed is
stamped with its ``trace_id``, so a whole span forest shares one
request identity.
"""

from __future__ import annotations

import contextlib
import contextvars
import io
import json
import os
import time
from typing import Any, Iterator, Mapping

from repro.exceptions import ReproError
from repro.obs.context import current_context

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
]


def _json_safe(value: Any) -> Any:
    """Coerce an attribute value into something ``json.dump`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    return repr(value)


class Span:
    """One timed, attributed node in a trace tree.

    Spans are context managers handed out by :meth:`Tracer.span`; user
    code only reads/annotates them.  ``duration_seconds`` is valid
    once the ``with`` block exits.
    """

    __slots__ = (
        "name",
        "attributes",
        "counters",
        "events",
        "children",
        "start_seconds",
        "end_seconds",
        "start_unix",
        "trace_id",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: dict[str, Any]):
        self.name = name
        self.attributes = attributes
        self.counters: dict[str, float] = {}
        self.events: list[dict[str, Any]] = []
        self.children: list[Span] = []
        self.start_seconds: float = 0.0
        self.end_seconds: float | None = None
        self.start_unix: float = 0.0
        self.trace_id: str | None = None
        self._tracer = tracer

    # -- annotation --------------------------------------------------------

    def set(self, **attributes: Any) -> "Span":
        """Merge attributes into the span (last write wins)."""
        self.attributes.update(attributes)
        return self

    def inc(self, counter: str, amount: float = 1) -> "Span":
        """Bump a per-span counter (e.g. samples processed)."""
        self.counters[counter] = self.counters.get(counter, 0) + amount
        return self

    def add_event(self, name: str, **attributes: Any) -> "Span":
        """Record a point-in-time event inside this span."""
        self.events.append(
            {
                "name": name,
                "offset_seconds": time.perf_counter() - self.start_seconds,
                **attributes,
            }
        )
        return self

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start_unix = time.time()
        self.start_seconds = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.end_seconds = time.perf_counter()
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self._tracer._pop(self)

    # -- reading -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once the span's ``with`` block has exited."""
        return self.end_seconds is not None

    @property
    def duration_seconds(self) -> float:
        """Wall time of the span (raises until finished)."""
        if self.end_seconds is None:
            raise ReproError(f"span {self.name!r} has not finished")
        return self.end_seconds - self.start_seconds

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_payload(self) -> dict[str, Any]:
        """Recursive JSON-safe serialization of this finished subtree.

        The run ledger stores traces in this form, with real
        timestamps intact.  Raises until the span has finished.
        """
        if self.end_seconds is None:
            raise ReproError(
                f"Span.to_payload: span {self.name!r} has not finished"
            )
        payload: dict[str, Any] = {
            "name": self.name,
            "start_unix": self.start_unix,
            "start_seconds": self.start_seconds,
            "end_seconds": self.end_seconds,
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.attributes:
            payload["attributes"] = _json_safe(self.attributes)
        if self.counters:
            payload["counters"] = dict(self.counters)
        if self.events:
            payload["events"] = _json_safe(self.events)
        if self.children:
            payload["children"] = [c.to_payload() for c in self.children]
        return payload

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe flat record of this span (children by name only)."""
        record: dict[str, Any] = {
            "name": self.name,
            "duration_seconds": self.duration_seconds,
            "start_unix": self.start_unix,
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if self.attributes:
            record["attributes"] = _json_safe(self.attributes)
        if self.counters:
            record["counters"] = dict(self.counters)
        if self.events:
            record["events"] = _json_safe(self.events)
        if self.children:
            record["children"] = [child.name for child in self.children]
        return record

    def __repr__(self) -> str:
        state = (
            f"{self.duration_seconds * 1e3:.2f}ms" if self.finished else "open"
        )
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class _NullSpan:
    """The shared do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def inc(self, counter: str, amount: float = 1) -> "_NullSpan":
        return self

    def add_event(self, name: str, **attributes: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a forest of :class:`Span` trees for one traced region.

    Not thread-safe by design: one tracer per run/thread, matching how
    the pipeline executes.
    """

    enabled = True

    def __init__(self) -> None:
        self._roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attributes: Any) -> Span:
        """A new span, nested under the currently open span (if any)."""
        if not name:
            raise ReproError("Tracer.span: empty span name")
        return Span(self, name, attributes)

    # -- stack maintenance (called by Span) --------------------------------

    def _push(self, span: Span) -> None:
        # Stamp the request identity onto every span opened while a
        # trace context is ambient (see repro.obs.context); spans
        # opened outside any request stay unstamped.
        if span.trace_id is None:
            context = current_context()
            if context is not None and context.sampled:
                span.trace_id = context.trace_id
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ReproError(
                f"Tracer: span {span.name!r} closed out of order"
            )
        self._stack.pop()

    # -- reading -----------------------------------------------------------

    @property
    def roots(self) -> tuple[Span, ...]:
        """Top-level spans, in start order."""
        return tuple(self._roots)

    def spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first across the root forest."""
        for root in self._roots:
            yield from root.walk()

    def find(self, name: str) -> tuple[Span, ...]:
        """All spans with the given name, in depth-first order."""
        return tuple(s for s in self.spans() if s.name == name)

    # -- grafting ------------------------------------------------------------

    def graft(self, span: Span) -> Span:
        """Adopt a finished span tree produced by another tracer.

        ``span`` becomes a child of the currently open span, or a new
        root when no span is open.  Its recorded timestamps are kept
        verbatim — grafting never re-times.
        """
        if not span.finished:
            raise ReproError(
                f"Tracer.graft: span {span.name!r} has not finished"
            )
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._roots.append(span)
        return span

    # -- export ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per finished span, depth-first, with ids.

        Fields: ``id``, ``parent`` (id or null), ``depth``, plus the
        span's :meth:`Span.to_dict` record.
        """
        out = io.StringIO()
        ids: dict[int, int] = {}

        def write(span: Span, parent: int | None, depth: int) -> None:
            if not span.finished:
                return
            span_id = len(ids)
            ids[id(span)] = span_id
            record = {"id": span_id, "parent": parent, "depth": depth}
            record.update(span.to_dict())
            record.pop("children", None)
            out.write(json.dumps(record) + "\n")
            for child in span.children:
                write(child, span_id, depth + 1)

        for root in self._roots:
            write(root, None, 0)
        return out.getvalue()

    def to_chrome(self) -> str:
        """The trace as Chrome ``trace_event`` JSON (complete events).

        Load the written file in ``chrome://tracing`` or Perfetto.
        Timestamps/durations are microseconds; attributes, counters
        and event names land in each event's ``args``.
        """
        events: list[dict[str, Any]] = []
        pid = os.getpid()
        origin = min(
            (s.start_seconds for s in self.spans() if s.finished),
            default=0.0,
        )
        for span in self.spans():
            if not span.finished:
                continue
            args: dict[str, Any] = dict(_json_safe(span.attributes) or {})
            if span.counters:
                args["counters"] = dict(span.counters)
            if span.events:
                args["events"] = _json_safe(span.events)
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": pid,
                    "tid": 1,
                    "ts": (span.start_seconds - origin) * 1e6,
                    "dur": span.duration_seconds * 1e6,
                    "args": args,
                }
            )
        return json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}, indent=2
        )

    def write(self, path: str) -> None:
        """Write the trace to ``path``: ``.jsonl`` → JSONL, else Chrome."""
        data = (
            self.to_jsonl() if str(path).endswith(".jsonl") else self.to_chrome()
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(data)

    def __repr__(self) -> str:
        return (
            f"Tracer(roots={len(self._roots)}, "
            f"spans={sum(1 for _ in self.spans())}, "
            f"open={len(self._stack)})"
        )


class NullTracer:
    """Disabled tracer: ``span()`` returns one shared no-op span.

    The fast path allocates nothing and reads no clocks, so leaving
    ``with current_tracer().span(...)`` in library code costs a dict
    lookup and a method call when tracing is off.  Hot loops can skip
    even that by guarding on :attr:`enabled`.
    """

    enabled = False

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        """The shared no-op span (nothing is recorded)."""
        return _NULL_SPAN

    @property
    def roots(self) -> tuple[Span, ...]:
        """Always empty."""
        return ()

    def spans(self) -> Iterator[Span]:
        """Always an empty iterator."""
        return iter(())

    def find(self, name: str) -> tuple[Span, ...]:
        """Always empty."""
        return ()

    def graft(self, span: Span) -> Span:
        """Discard the grafted tree (nothing is recorded)."""
        return span

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()

# A ContextVar, not a module global: each asyncio task and each worker
# thread that installs a tracer sees only its own, so the scoring
# service can trace concurrent requests without cross-talk.
_current_tracer_var: contextvars.ContextVar[Tracer | NullTracer] = (
    contextvars.ContextVar("repro_tracer", default=NULL_TRACER)
)


def current_tracer() -> Tracer | NullTracer:
    """The ambient tracer (:data:`NULL_TRACER` unless one is installed)."""
    return _current_tracer_var.get()


@contextlib.contextmanager
def use_tracer(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Install ``tracer`` for the duration of a ``with`` block."""
    token = _current_tracer_var.set(tracer)
    try:
        yield tracer
    finally:
        _current_tracer_var.reset(token)
