"""Propagatable trace context: one identity for one request's work.

A :class:`TraceContext` names the causal unit everything else hangs
off: a 128-bit ``trace_id`` shared by every span the request produces,
the ``span_id`` of the context's *parent* span (what the work
attaches under when it crosses a process boundary), and a ``sampled``
flag that lets an upstream caller switch recording off without
changing the id wire format.

The context is carried **ambiently** in a :class:`contextvars.ContextVar`
— the one mechanism that follows both ``asyncio`` task switches and
explicit installs on worker threads — and serialized at every process
boundary:

* HTTP: :meth:`TraceContext.to_traceparent` /
  :meth:`TraceContext.from_traceparent` speak the W3C
  ``traceparent`` header shape (``00-<trace_id>-<span_id>-<flags>``),
  so the scoring service both accepts an inbound context and emits
  the one it used;
* ledger: :meth:`~repro.obs.ledger.RunRecorder.finish` stamps the
  ambient ``trace_id`` into the run record, which is what lets
  ``obs show <trace-prefix>`` resolve a run by the id a service
  response carried.

With a context installed, :class:`~repro.obs.trace.Tracer` stamps
``trace_id`` onto every span it opens (see ``Tracer._push``), so a
span forest and a ledger record agree about which request they
describe.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import re
from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import ReproError

__all__ = [
    "TRACEPARENT_VERSION",
    "TraceContext",
    "new_trace_id",
    "new_span_id",
    "new_context",
    "current_context",
    "use_context",
]

TRACEPARENT_VERSION = "00"

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def new_trace_id() -> str:
    """A fresh random 128-bit trace id as 32 lowercase hex digits."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh random 64-bit span id as 16 lowercase hex digits."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """One request's identity: trace id, parent span id, sampled flag.

    Immutable — derive per-boundary children with :meth:`child` so the
    trace id is shared while each hop gets its own parent span id.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[0-9a-f]{32}", self.trace_id) or set(
            self.trace_id
        ) == {"0"}:
            raise ReproError(
                f"TraceContext: trace_id must be 32 nonzero lowercase hex "
                f"digits, got {self.trace_id!r}"
            )
        if not re.fullmatch(r"[0-9a-f]{16}", self.span_id) or set(
            self.span_id
        ) == {"0"}:
            raise ReproError(
                f"TraceContext: span_id must be 16 nonzero lowercase hex "
                f"digits, got {self.span_id!r}"
            )

    # -- derivation --------------------------------------------------------

    def child(self) -> "TraceContext":
        """Same trace, fresh parent span id — one per boundary crossed."""
        return TraceContext(
            trace_id=self.trace_id, span_id=new_span_id(), sampled=self.sampled
        )

    # -- HTTP header form --------------------------------------------------

    def to_traceparent(self) -> str:
        """The ``traceparent`` header value for this context."""
        flags = "01" if self.sampled else "00"
        return f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-{flags}"

    @classmethod
    def from_traceparent(cls, header: str) -> "TraceContext":
        """Parse a ``traceparent`` header (raises :class:`ReproError`).

        Accepts any version except the reserved ``ff``; only the
        sampled bit of the flags octet is interpreted.
        """
        match = _TRACEPARENT_RE.match(header.strip().lower())
        if match is None:
            raise ReproError(
                f"TraceContext: malformed traceparent header {header!r}"
            )
        version, trace_id, span_id, flags = match.groups()
        if version == "ff":
            raise ReproError(
                "TraceContext: traceparent version 'ff' is reserved"
            )
        return cls(
            trace_id=trace_id,
            span_id=span_id,
            sampled=bool(int(flags, 16) & 0x01),
        )


def new_context(*, sampled: bool = True) -> TraceContext:
    """A brand-new root context with fresh random ids."""
    return TraceContext(
        trace_id=new_trace_id(), span_id=new_span_id(), sampled=sampled
    )


_context_var: contextvars.ContextVar[TraceContext | None] = (
    contextvars.ContextVar("repro_trace_context", default=None)
)


def current_context() -> TraceContext | None:
    """The ambient trace context, or ``None`` outside any request."""
    return _context_var.get()


@contextlib.contextmanager
def use_context(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Install ``context`` for the duration of a ``with`` block."""
    token = _context_var.set(context)
    try:
        yield context
    finally:
        _context_var.reset(token)
