"""Unit tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import math
import threading

import pytest

from repro.analysis.pipeline import WorkloadAnalysisPipeline
from repro.exceptions import ReproError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    RESERVOIR_SIZE,
    MetricsRegistry,
    current_metrics,
    use_metrics,
)
from repro.som.som import SOMConfig
from repro.workloads.suite import BenchmarkSuite


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ReproError, match="negative"):
            Counter().inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge()
        gauge.set(4.0)
        gauge.set(2.0)
        assert gauge.value == 2.0

    def test_gauge_rejects_non_finite(self):
        with pytest.raises(ReproError, match="non-finite"):
            Gauge().set(math.inf)

    def test_histogram_percentiles_are_nearest_rank(self):
        histogram = Histogram()
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        assert histogram.p50 == 50.0
        assert histogram.p95 == 95.0
        assert histogram.max == 100.0
        assert histogram.percentile(0) == 1.0
        assert histogram.count == 100
        assert histogram.total == sum(range(1, 101))

    def test_histogram_single_observation(self):
        histogram = Histogram()
        histogram.observe(7.0)
        assert histogram.p50 == histogram.p95 == histogram.max == 7.0

    def test_histogram_empty_raises(self):
        with pytest.raises(ReproError, match="no observations"):
            _ = Histogram().p50

    def test_histogram_summary_shape(self):
        histogram = Histogram()
        histogram.observe(1.0)
        histogram.observe(3.0)
        summary = histogram.summary()
        assert summary == {
            "count": 2, "sum": 4.0, "p50": 1.0, "p95": 3.0, "max": 3.0
        }
        assert Histogram().summary() == {"count": 0, "sum": 0.0}


class TestRegistry:
    def test_same_identity_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", stage="reduce")
        b = registry.counter("hits", stage="reduce")
        assert a is b

    def test_labels_separate_instruments(self):
        registry = MetricsRegistry()
        registry.histogram("seconds", stage="reduce").observe(1.0)
        registry.histogram("seconds", stage="cluster").observe(2.0)
        assert registry.histogram("seconds", stage="reduce").count == 1
        assert registry.histogram("seconds", stage="cluster").count == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ReproError, match="already registered"):
            registry.gauge("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ReproError, match="empty metric name"):
            MetricsRegistry().counter("")

    def test_as_dict_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g", machine="A").set(1.5)
        registry.histogram("h").observe(2.0)
        snapshot = registry.as_dict()
        assert snapshot["c"] == 3
        assert snapshot['g{machine="A"}'] == 1.5
        assert snapshot["h"]["count"] == 1


class TestPrometheusRender:
    def test_render_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("repro_cache_hits_total").inc(4)
        registry.gauge("repro_som_qe").set(0.25)
        hist = registry.histogram("repro_stage_seconds", stage="reduce")
        hist.observe(0.1)
        hist.observe(0.3)
        text = registry.render_prometheus()
        assert "# TYPE repro_cache_hits_total counter" in text
        assert "repro_cache_hits_total 4" in text
        assert "# TYPE repro_som_qe gauge" in text
        assert "repro_som_qe 0.25" in text
        assert "# TYPE repro_stage_seconds summary" in text
        assert (
            'repro_stage_seconds{quantile="0.5",stage="reduce"} 0.1' in text
        )
        assert 'repro_stage_seconds_count{stage="reduce"} 2' in text
        assert 'repro_stage_seconds_sum{stage="reduce"} 0.4' in text

    def test_type_line_emitted_once_per_family(self):
        registry = MetricsRegistry()
        registry.gauge("score", machine="A").set(1.0)
        registry.gauge("score", machine="B").set(2.0)
        text = registry.render_prometheus()
        assert text.count("# TYPE score gauge") == 1

    def test_write_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        path = tmp_path / "metrics.txt"
        registry.write(str(path))
        assert path.read_text() == registry.render_prometheus()


class TestAmbientRegistry:
    def test_default_registry_always_exists(self):
        assert isinstance(current_metrics(), MetricsRegistry)

    def test_use_metrics_scopes_and_restores(self):
        outer = current_metrics()
        fresh = MetricsRegistry()
        with use_metrics(fresh):
            assert current_metrics() is fresh
            current_metrics().counter("scoped").inc()
        assert current_metrics() is outer
        assert "scoped" not in outer.as_dict()
        assert fresh.as_dict()["scoped"] == 1

    def test_concurrent_threads_each_fill_their_own_registry(self):
        """Two batch pipelines run at once, each under its own registry:
        every stage and cluster instrument lands in the registry of the
        thread that ran it, and none in the process default."""
        suite = BenchmarkSuite.paper_suite()
        som_config = SOMConfig(rows=5, columns=5, steps_per_sample=100, seed=3)
        registries = [MetricsRegistry(), MetricsRegistry()]
        both_installed = threading.Barrier(len(registries), timeout=30)
        errors: list[Exception] = []
        default_before = current_metrics().as_dict()

        def run(registry: MetricsRegistry) -> None:
            try:
                with use_metrics(registry):
                    both_installed.wait()
                    WorkloadAnalysisPipeline(
                        characterization="methods",
                        machine=None,
                        som_config=som_config,
                        som_mode="batch",
                    ).run(suite)
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(registry,))
            for registry in registries
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert current_metrics().as_dict() == default_before
        for registry in registries:
            snapshot = registry.as_dict()
            stage_timings = [
                key
                for key in snapshot
                if key.startswith("repro_engine_stage_seconds{")
            ]
            assert len(stage_timings) == 6
            assert all(snapshot[key]["count"] == 1 for key in stage_timings)
            assert snapshot['repro_cluster_merges_total{linkage="complete"}'] > 0
            assert "repro_cluster_top_merge_distance" in snapshot


class TestDeterministicDumps:
    """Satellite: dump output is a function of contents, not history."""

    @staticmethod
    def _populate(registry, order):
        ops = {
            "a": lambda r: r.counter("alpha_total").inc(2),
            "b": lambda r: r.counter("beta_total", shard="2").inc(1),
            "c": lambda r: r.counter("beta_total", shard="1").inc(3),
            "d": lambda r: r.gauge("gamma_level", zone="eu", tier="gold").set(7),
            "e": lambda r: r.gauge("gamma_level", tier="gold", zone="eu").set(7),
            "f": lambda r: r.histogram("delta_seconds").observe(0.5),
        }
        for key in order:
            ops[key](registry)

    def test_population_order_never_changes_prometheus_dump(self):
        forward, backward = MetricsRegistry(), MetricsRegistry()
        self._populate(forward, "abcdef")
        self._populate(backward, "fedcba")
        assert forward.render_prometheus() == backward.render_prometheus()

    def test_label_keyword_order_never_changes_identity_or_dump(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        self._populate(one, "d")
        self._populate(two, "e")
        assert one.render_prometheus() == two.render_prometheus()
        assert one.as_dict() == two.as_dict()

    def test_as_dict_is_sorted(self):
        registry = MetricsRegistry()
        self._populate(registry, "fedcba")
        names = list(registry.as_dict())
        assert names == sorted(names)


class TestHistogramReservoir:
    """Every histogram keeps at most RESERVOIR_SIZE samples (Algorithm R)."""

    def test_uncapped_by_default(self):
        histogram = Histogram()
        for i in range(5000):
            histogram.observe(float(i))
        assert len(histogram.samples) == 5000 < RESERVOIR_SIZE

    def test_cap_bounds_memory_but_keeps_exact_count_sum_max(self):
        histogram = Histogram()
        n = 2 * RESERVOIR_SIZE
        for i in range(n):
            histogram.observe(float(i))
        assert len(histogram.samples) == RESERVOIR_SIZE
        assert histogram.count == n
        assert histogram.total == sum(range(n))
        assert histogram.max == float(n - 1)
        summary = histogram.summary()
        assert summary["count"] == n
        assert summary["sum"] == pytest.approx(float(sum(range(n))))

    def test_percentiles_stay_within_tolerance_under_capping(self):
        # Fixed-seed reservoir + deterministic input -> reproducible
        # estimates; a uniform ramp makes the expected quantiles obvious.
        capped = Histogram()
        for i in range(8 * RESERVOIR_SIZE):
            capped.observe(float(i % 1000))
        assert len(capped.samples) == RESERVOIR_SIZE
        for q, true in ((50.0, 499.0), (90.0, 899.0), (99.0, 989.0)):
            estimate = capped.percentile(q)
            assert abs(estimate - true) <= 20, (q, true, estimate)

    def test_below_cap_behaves_exactly(self):
        histogram = Histogram()
        for value in (5.0, 1.0, 3.0):
            histogram.observe(value)
        assert histogram.percentile(50) == 3.0
        assert sorted(histogram.samples) == [1.0, 3.0, 5.0]
