"""Counters, gauges and timing histograms with a Prometheus-style dump.

A :class:`MetricsRegistry` hands out named instruments on demand::

    metrics = MetricsRegistry()
    metrics.counter("repro_engine_cache_hits_total").inc()
    metrics.gauge("repro_som_quantization_error").set(0.42)
    metrics.histogram("repro_engine_stage_seconds", stage="reduce").observe(dt)

Instruments are keyed by name **plus labels**, so one histogram family
covers every pipeline stage.  :meth:`MetricsRegistry.render_prometheus`
emits the text exposition format (histograms as quantile summaries),
and :meth:`MetricsRegistry.as_dict` the JSON shape the run ledger
stores with each record.

Like tracing, metrics are ambient: the registry slot is a
:class:`contextvars.ContextVar`, :func:`current_metrics` returns the
registry installed in the current thread or asyncio task (a
process-wide default exists, so instrumentation never needs a None
check), and :func:`use_metrics` scopes one to a ``with`` block.  The
CLI does this per invocation so ``--metrics`` dumps exactly one run;
the scoring service does it on each compute thread, so its
``/metricsz`` sees the engine's and the SOM's instruments.  A thread
you start sees the default until it installs its own.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import random
import threading
from typing import Any, Iterator, Mapping

from repro.exceptions import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RESERVOIR_SIZE",
    "current_metrics",
    "use_metrics",
]


# Observations a histogram retains.  Below it percentiles are exact;
# no CLI run or benchmark window comes near it.  Past it a long-lived
# daemon's request histograms stop growing, and each scrape sorts at
# most this many values.
RESERVOIR_SIZE = 16_384


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ReproError(f"Counter.inc: negative amount {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        if not math.isfinite(value):
            raise ReproError(f"Gauge.set: non-finite value {value}")
        self.value = float(value)


class Histogram:
    """Observation distribution with nearest-rank percentiles.

    The first :data:`RESERVOIR_SIZE` observations are all kept (runs
    here are thousands of samples, not millions), so percentiles are
    exact rather than bucketed.  Observations beyond that enter a
    deterministic reservoir (Algorithm R over a fixed-seed PRNG), so a
    long-lived daemon's histograms stay bounded: ``count``/``total``/
    ``max`` remain exact while percentiles become reservoir estimates.

    An observation may carry a **trace-id exemplar**
    (``observe(dt, trace_id=...)``): the histogram remembers the id of
    its worst such observation, so a latency spike on ``/metricsz``
    points straight at the run that caused it (``obs show <id>``).
    """

    __slots__ = (
        "_values",
        "_count",
        "_sum",
        "_max",
        "_exemplar",
        "_rng",
    )

    def __init__(self) -> None:
        self._values: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._max: float | None = None
        self._exemplar: dict[str, Any] | None = None
        self._rng: random.Random | None = None

    def observe(self, value: float, *, trace_id: str | None = None) -> None:
        """Record one observation, optionally tagged with a trace id.

        Exemplar policy is *worst wins*: the histogram keeps the trace
        id of the largest tagged observation seen so far.
        """
        if not math.isfinite(value):
            raise ReproError(f"Histogram.observe: non-finite value {value}")
        value = float(value)
        self._count += 1
        self._sum += value
        if self._max is None or value > self._max:
            self._max = value
        if trace_id is not None and (
            self._exemplar is None or value > self._exemplar["value"]
        ):
            self._exemplar = {"value": value, "trace_id": str(trace_id)}
        # Admit the sample, through the reservoir once it is full.
        if len(self._values) < RESERVOIR_SIZE:
            self._values.append(value)
            return
        if self._rng is None:
            # Seeded so reservoir percentile estimates are reproducible.
            self._rng = random.Random(0x5EED)
        slot = self._rng.randrange(self._count)
        if slot < RESERVOIR_SIZE:
            self._values[slot] = value

    @property
    def count(self) -> int:
        """Number of observations (exact past the reservoir size too)."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of observations (exact past the reservoir size too)."""
        return self._sum

    @property
    def samples(self) -> tuple[float, ...]:
        """The retained observations (all of them up to the reservoir size)."""
        return tuple(self._values)

    @property
    def max(self) -> float:
        """Largest observation (raises when empty)."""
        if self._max is None:
            raise ReproError("Histogram.max: no observations")
        return self._max

    @property
    def exemplar(self) -> dict[str, Any] | None:
        """``{"value", "trace_id"}`` of the worst tagged observation."""
        return dict(self._exemplar) if self._exemplar is not None else None

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100]."""
        if not 0 <= q <= 100:
            raise ReproError(f"Histogram.percentile: q={q} outside [0, 100]")
        if not self._values:
            raise ReproError("Histogram.percentile: no observations")
        ordered = sorted(self._values)
        rank = max(1, math.ceil(q / 100 * len(ordered)))
        return ordered[rank - 1]

    @property
    def p50(self) -> float:
        """Median observation."""
        return self.percentile(50)

    @property
    def p95(self) -> float:
        """95th-percentile observation."""
        return self.percentile(95)

    def summary(self) -> dict[str, float]:
        """count/sum/p50/p95/max in one JSON-safe mapping."""
        if not self._count or not self._values:
            return {"count": self._count, "sum": self._sum}
        return {
            "count": self.count,
            "sum": self.total,
            "p50": self.p50,
            "p95": self.p95,
            "max": self.max,
        }


class MetricsRegistry:
    """Named instrument families, created on first use.

    An instrument is identified by ``(name, labels)``; asking for the
    same identity twice returns the same object.  Asking for an
    existing name as a different instrument kind raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[
            tuple[str, tuple[tuple[str, str], ...]], Counter | Gauge | Histogram
        ] = {}
        self._kinds: dict[str, type] = {}
        # The scoring service shares one registry across handler
        # threads; the lock keeps concurrent first-use creation from
        # dropping an instrument (two threads racing past the None
        # check would each build one and one would lose its counts).
        self._lock = threading.RLock()

    def _get(
        self, kind: type, name: str, labels: Mapping[str, str]
    ) -> Counter | Gauge | Histogram:
        if not name:
            raise ReproError("MetricsRegistry: empty metric name")
        with self._lock:
            registered = self._kinds.get(name)
            if registered is not None and registered is not kind:
                raise ReproError(
                    f"MetricsRegistry: {name!r} already registered as "
                    f"{registered.__name__}, requested {kind.__name__}"
                )
            key = (name, _label_key(labels))
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = kind()
                self._instruments[key] = instrument
                self._kinds[name] = kind
            return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter for ``name`` + labels, created on first use."""
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge for ``name`` + labels, created on first use."""
        return self._get(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels: str) -> Histogram:
        """The histogram for ``name`` + labels, created on first use."""
        return self._get(Histogram, name, labels)  # type: ignore[return-value]

    # -- export ------------------------------------------------------------

    def _sorted_instruments(
        self,
    ) -> list[tuple[tuple[str, tuple[tuple[str, str], ...]], Counter | Gauge | Histogram]]:
        """Instruments sorted by name then label set: every dump —
        Prometheus text and :meth:`as_dict` — renders in this one
        deterministic order regardless of creation order."""
        with self._lock:
            return sorted(self._instruments.items(), key=lambda item: item[0])

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot: ``{name{labels}: value-or-summary}``."""
        snapshot: dict[str, Any] = {}
        for (name, labels), instrument in self._sorted_instruments():
            key = name + _format_labels(labels)
            if isinstance(instrument, Histogram):
                snapshot[key] = instrument.summary()
            else:
                snapshot[key] = instrument.value
        return snapshot

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every instrument.

        Counters/gauges render as plain samples; histograms render as
        quantile summaries (``name{quantile="0.5"}`` …) with ``_count``
        and ``_sum`` samples, which is what scrapers expect of timing
        distributions.
        """
        type_names = {Counter: "counter", Gauge: "gauge", Histogram: "summary"}
        lines: list[str] = []
        seen_types: set[str] = set()
        for (name, labels), instrument in self._sorted_instruments():
            if name not in seen_types:
                seen_types.add(name)
                lines.append(
                    f"# TYPE {name} {type_names[type(instrument)]}"
                )
            suffix = _format_labels(labels)
            if isinstance(instrument, Histogram):
                if instrument.count:
                    exemplar = instrument.exemplar
                    for q, value in (
                        ("0.5", instrument.p50),
                        ("0.95", instrument.p95),
                        ("1", instrument.max),
                    ):
                        q_labels = _label_key(
                            dict(labels, quantile=q)
                        )
                        line = f"{name}{_format_labels(q_labels)} {value:.9g}"
                        # OpenMetrics-style exemplar on the worst
                        # quantile: the trace id of the slowest tagged
                        # observation, resolvable via `obs show <id>`.
                        if q == "1" and exemplar is not None:
                            line += (
                                f' # {{trace_id="{exemplar["trace_id"]}"}}'
                                f' {exemplar["value"]:.9g}'
                            )
                        lines.append(line)
                lines.append(f"{name}_count{suffix} {instrument.count}")
                lines.append(f"{name}_sum{suffix} {instrument.total:.9g}")
            else:
                lines.append(f"{name}{suffix} {instrument.value:.9g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str) -> None:
        """Write the Prometheus text dump to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render_prometheus())

    def __repr__(self) -> str:
        return f"MetricsRegistry(instruments={len(self._instruments)})"


# A ContextVar, like the tracer's: a registry installed on one thread
# never collects another thread's instruments.  The default is one
# process-wide registry, so instrumentation never needs a None check.
_current_metrics_var: contextvars.ContextVar[MetricsRegistry] = (
    contextvars.ContextVar("repro_metrics", default=MetricsRegistry())
)


def current_metrics() -> MetricsRegistry:
    """The ambient registry (the process default unless one is installed)."""
    return _current_metrics_var.get()


@contextlib.contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` for the duration of a ``with`` block."""
    token = _current_metrics_var.set(registry)
    try:
        yield registry
    finally:
        _current_metrics_var.reset(token)
