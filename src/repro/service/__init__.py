"""Scoring-as-a-service: a resident asyncio scoring daemon.

The CLI rebuilds the engine, memory cache, and disk cache from scratch
on every invocation — the warm substrate of PRs 1-6 evaporates at
process exit.  :mod:`repro.service` keeps it resident: one
:class:`~repro.service.runtime.ServiceRuntime` (a shared
:class:`~repro.engine.PipelineEngine` over an optional
:class:`~repro.engine.diskcache.DiskCache`) serves HTTP/JSON requests
for the paper's scoring methodology, so re-scoring a suite under a
changed partition is a cache hit instead of a cold SOM training run.

Layering (all stdlib — ``asyncio`` streams, no web framework):

* :mod:`repro.service.schemas` — request validation (strict: unknown
  fields are rejected) and typed request objects;
* :mod:`repro.service.http` — minimal HTTP/1.1 parsing and response
  writing over asyncio streams, with body-size limits;
* :mod:`repro.service.runtime` — the transport-free core: warm
  engine, request handlers, compute counters, the async job registry
  and ``service:<endpoint>`` ledger records;
* :mod:`repro.service.events` — live run events: each async job's
  bounded :class:`~repro.service.events.RunEventStream`, fed by the
  request's :class:`~repro.service.events.EventTapTracer` (stage
  starts and finishes, SOM epochs) and streamed by ``/events``;
* :mod:`repro.service.app` — :class:`ScoringService`: routing,
  per-key in-flight coalescing (identical concurrent requests compute
  once and share one response body), bounded concurrency, graceful
  drain on SIGTERM;
* :mod:`repro.service.client` — a tiny blocking client plus
  :class:`ServiceThread`, the in-process harness tests and benchmarks
  start on an ephemeral port.

Start one with ``repro-hmeans serve --port 8311`` and see
``docs/SERVICE.md`` for endpoint schemas and the load-test recipe.
"""

from repro.service.app import ScoringService
from repro.service.client import ServiceClient, ServiceThread, SseEvent
from repro.service.events import EventTapTracer, RunEventStream
from repro.service.runtime import ServiceRuntime
from repro.service.schemas import (
    AnalyzeRequest,
    ScoreRequest,
    ValidationError,
    validate_analyze_request,
    validate_score_request,
)

__all__ = [
    "AnalyzeRequest",
    "EventTapTracer",
    "RunEventStream",
    "ScoreRequest",
    "ScoringService",
    "ServiceClient",
    "ServiceRuntime",
    "ServiceThread",
    "SseEvent",
    "ValidationError",
    "validate_analyze_request",
    "validate_score_request",
]
