"""Observability layer: spans, metrics, logging and the run ledger.

Small, dependency-free tools that the engine, the SOM and the CLI
thread through every run:

* :mod:`repro.obs.trace` — nestable timed spans with JSONL and Chrome
  ``trace_event`` export (``chrome://tracing`` / Perfetto loadable);
* :mod:`repro.obs.metrics` — counters, gauges and timing histograms
  (p50/p95/max) with a Prometheus-style text dump;
* :mod:`repro.obs.ledger` — a persistent JSONL ledger of runs
  (per-stage walls, cache sources, metrics, traces) read back by the
  ``repro-hmeans obs`` subcommands;
* :mod:`repro.obs.render` — ASCII rendering of ledger records (run
  tables, flame views, regression diffs, live service events);
* :mod:`repro.obs.log` — stdlib logging under the ``repro`` namespace
  with an ``event key=value`` line format;
* :mod:`repro.obs.context` — the propagatable
  :class:`~repro.obs.context.TraceContext` (128-bit trace id, parent
  span id, sampled flag) carried ambiently in a ``ContextVar`` and
  serialized across HTTP (``traceparent``), so every span, ledger record and service response of one request
  shares one identity.

Four slots are *ambient*, each a :class:`contextvars.ContextVar`
read by :func:`current_tracer`, :func:`current_metrics`,
:func:`current_recorder` and :func:`current_context`.  Their defaults
(a no-op tracer, a process default registry, a no-op recorder, no
context) make instrumentation free to leave in place.  The only way
to install a slot is its ``with`` block — :func:`use_tracer`,
:func:`use_metrics`, :func:`use_recorder`, :func:`use_context` —
which puts the previous value back on exit.  A thread you start sees
the defaults until it installs its own slots, as the scoring
service's compute threads do::

    from repro.obs import Tracer, MetricsRegistry, use_tracer, use_metrics

    tracer, metrics = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_metrics(metrics):
        result = pipeline.run(suite)
    tracer.write("trace.json")          # open in chrome://tracing
    print(metrics.render_prometheus())
"""

from repro.obs.context import (
    TRACEPARENT_VERSION,
    TraceContext,
    current_context,
    new_context,
    new_span_id,
    new_trace_id,
    use_context,
)
from repro.obs.ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_ENV,
    NULL_RECORDER,
    SIZE_WARNING_BYTES,
    CompactionResult,
    NullRecorder,
    RunLedger,
    RunRecorder,
    current_recorder,
    ledger_path_from_env,
    use_recorder,
)
from repro.obs.log import (
    KeyValueFormatter,
    configure_logging,
    fmt_kv,
    get_logger,
    verbosity_to_level,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_metrics,
    use_metrics,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    # tracing
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
    # trace context
    "TRACEPARENT_VERSION",
    "TraceContext",
    "current_context",
    "new_context",
    "new_span_id",
    "new_trace_id",
    "use_context",
    # run ledger
    "DEFAULT_LEDGER_PATH",
    "LEDGER_ENV",
    "SIZE_WARNING_BYTES",
    "CompactionResult",
    "RunLedger",
    "RunRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "current_recorder",
    "use_recorder",
    "ledger_path_from_env",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "current_metrics",
    "use_metrics",
    # logging
    "KeyValueFormatter",
    "fmt_kv",
    "get_logger",
    "configure_logging",
    "verbosity_to_level",
]
