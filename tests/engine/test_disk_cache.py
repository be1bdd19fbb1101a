"""DiskCache: persistence, corruption recovery, eviction, engine wiring."""

from __future__ import annotations

import errno
import logging
import os

import numpy as np
import pytest

from repro.engine import (
    DiskCache,
    FunctionStage,
    PipelineEngine,
)
from repro.exceptions import EngineError
from repro.obs import MetricsRegistry, use_metrics


@pytest.fixture()
def captured_warnings():
    """Records of WARNING+ logs from the diskcache logger.

    A direct handler on the logger, so capture works no matter what
    ``configure_logging`` (which disables propagation) did earlier in
    the test session.
    """
    logger = logging.getLogger("repro.engine.diskcache")
    records: list[logging.LogRecord] = []

    class _Collect(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            records.append(record)

    handler = _Collect(level=logging.WARNING)
    saved_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    yield records
    logger.removeHandler(handler)
    logger.setLevel(saved_level)


def _outputs():
    return {
        "matrix": np.arange(12, dtype=float).reshape(3, 4),
        "labels": ("a", "b", "c"),
        "count": 3,
    }


def _key(n: int = 0) -> str:
    return f"{n:02x}" + "ab" * 31


class TestDiskCacheBasics:
    def test_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        assert cache.put(_key(), _outputs(), stage="s") is True
        got = cache.get(_key(), stage="s")
        assert np.array_equal(got["matrix"], _outputs()["matrix"])
        assert got["labels"] == ("a", "b", "c")
        assert got["count"] == 3
        info = cache.info()
        assert (info.hits, info.misses, info.stores) == (1, 0, 1)
        assert info.entries == 1
        assert info.total_bytes > 0

    def test_uncreatable_root_raises_engine_error(self, tmp_path):
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory")
        root = blocker / "sub"
        with pytest.raises(EngineError, match="cannot create") as info:
            DiskCache(root)
        assert str(root) in str(info.value)

    def test_unreadable_format_stamp_raises_engine_error(self, tmp_path):
        (tmp_path / "format").mkdir()
        with pytest.raises(EngineError, match="cannot read format stamp"):
            DiskCache(tmp_path)

    def test_absent_key_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get(_key()) is None
        assert cache.info().misses == 1

    def test_entries_are_sharded_by_key_prefix(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(_key(0xAB), _outputs())
        assert (tmp_path / "ab" / f"{_key(0xAB)}.npz").exists()

    @pytest.mark.parametrize("bad", ["", "a/b", "..", "a.b", "a\\b"])
    def test_malformed_keys_are_rejected(self, tmp_path, bad):
        cache = DiskCache(tmp_path)
        with pytest.raises(EngineError):
            cache.path_for(bad)

    def test_unencodable_outputs_are_skipped_not_raised(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.put(_key(), {"x": object()}) is False
        assert cache.info().entries == 0

    def test_clear_removes_entries(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(_key(), _outputs())
        cache.clear()
        assert cache.info().entries == 0
        assert cache.get(_key()) is None

    def test_persists_across_instances(self, tmp_path):
        DiskCache(tmp_path).put(_key(), _outputs())
        fresh = DiskCache(tmp_path)
        got = fresh.get(_key())
        assert got is not None and got["count"] == 3

    def test_contains_probes_without_counting(self, tmp_path):
        """contains() is a pure index probe: no hit/miss bookkeeping."""
        cache = DiskCache(tmp_path)
        assert cache.contains(_key()) is False
        cache.put(_key(), _outputs())
        assert cache.contains(_key()) is True
        assert cache.contains(_key(1)) is False
        info = cache.info()
        assert (info.hits, info.misses) == (0, 0)

    def test_contains_does_not_bump_the_lru_clock(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(_key(), _outputs())
        path = cache.path_for(_key())
        os.utime(path, (1, 1))
        cache.contains(_key())
        assert path.stat().st_mtime == 1

    def test_metrics_feed_the_ambient_registry(self, tmp_path):
        registry = MetricsRegistry()
        with use_metrics(registry):
            cache = DiskCache(tmp_path)
            cache.put(_key(), _outputs())
            cache.get(_key())
            cache.get(_key(1))
        snapshot = registry.as_dict()
        assert any("repro_engine_disk_hits_total" in k for k in snapshot)
        assert any("repro_engine_disk_misses_total" in k for k in snapshot)
        assert any("repro_engine_disk_stores_total" in k for k in snapshot)


class TestCorruptionRecovery:
    def test_truncated_entry_recovers_as_miss(self, tmp_path, captured_warnings):
        cache = DiskCache(tmp_path)
        cache.put(_key(), _outputs())
        path = cache.path_for(_key())
        path.write_bytes(path.read_bytes()[:20])

        assert cache.get(_key()) is None
        assert not path.exists(), "corrupt entry must be deleted"
        info = cache.info()
        assert info.corruptions == 1
        assert info.misses == 1
        assert any("corrupt_entry" in r.getMessage() for r in captured_warnings)

    def test_garbage_entry_recovers_as_miss(self, tmp_path, captured_warnings):
        cache = DiskCache(tmp_path)
        path = cache.path_for(_key())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz payload at all")
        assert cache.get(_key()) is None
        assert cache.info().corruptions == 1
        assert captured_warnings

    def test_entry_under_wrong_key_recovers_as_miss(self, tmp_path, captured_warnings):
        cache = DiskCache(tmp_path)
        cache.put(_key(0), _outputs())
        # Move the valid entry under a different key: content no longer
        # matches its address, which must not be silently served.
        src, dst = cache.path_for(_key(0)), cache.path_for(_key(1))
        dst.parent.mkdir(parents=True, exist_ok=True)
        os.replace(src, dst)
        assert cache.get(_key(1)) is None
        assert cache.info().corruptions == 1
        assert any("key mismatch" in r.getMessage() for r in captured_warnings)

    def test_stale_format_stamp_clears_the_cache(self, tmp_path, captured_warnings):
        cache = DiskCache(tmp_path)
        cache.put(_key(), _outputs())
        (tmp_path / "format").write_text("999\n", encoding="utf-8")

        fresh = DiskCache(tmp_path)
        assert fresh.info().entries == 0
        assert any(
            "format_mismatch" in r.getMessage() for r in captured_warnings
        )
        assert (tmp_path / "format").read_text(encoding="utf-8").strip() != "999"

    def test_corruption_never_raises_into_the_engine(self, tmp_path):
        calls = []
        stage = FunctionStage(
            "make",
            lambda: np.ones(4) * len(calls or [1]),
            outputs=("x",),
            params={"v": 1},
        )

        engine = PipelineEngine(disk_cache=tmp_path)
        run = engine.run([stage], {})
        for path in (tmp_path).rglob("*.npz"):
            path.write_bytes(b"garbage")

        fresh = PipelineEngine(disk_cache=tmp_path)
        rerun = fresh.run([stage], {})
        assert np.array_equal(run.artifact("x"), rerun.artifact("x"))
        assert rerun.report.stats_for("make").cache_source == "compute"
        assert fresh.disk_cache_info().corruptions == 1


class TestEviction:
    def test_size_cap_evicts_oldest_mtime_first(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=1)  # everything over cap
        cache.put(_key(0), _outputs())
        # One entry over an over-tight cap: the store itself survives,
        # then eviction brings the cache back under as far as it can.
        assert cache.info().entries == 0
        assert cache.info().evictions == 1

    def test_lru_order_respects_recency(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=10**9)
        for n in range(3):
            cache.put(_key(n), _outputs())
        # Age the middle entry far into the past, then shrink the cap
        # so one entry must go: the oldest-mtime one.
        os.utime(cache.path_for(_key(1)), (1, 1))
        sizes = sum(
            cache.path_for(_key(n)).stat().st_size for n in range(3)
        )
        # Small slack: compressed entry sizes vary by a few bytes, and
        # the cap must keep exactly three of the four entries.
        tight = DiskCache(tmp_path, max_bytes=sizes + 16)
        tight.put(_key(3), _outputs())
        assert not tight.path_for(_key(1)).exists()
        assert tight.path_for(_key(0)).exists()
        assert tight.path_for(_key(2)).exists()


class TestEngineIntegration:
    @staticmethod
    def _stages(calls: list[str]):
        def source():
            calls.append("source")
            return np.linspace(0.0, 1.0, 50)

        def square(x):
            calls.append("square")
            return {"y": x * x, "total": float(x.sum())}

        return [
            FunctionStage("source", source, outputs=("x",), params={"n": 50}),
            FunctionStage(
                "square", square, inputs=("x",), outputs=("y", "total")
            ),
        ]

    def test_warm_engine_computes_nothing(self, tmp_path):
        calls: list[str] = []
        cold = PipelineEngine(disk_cache=tmp_path).run(self._stages(calls), {})
        assert calls == ["source", "square"]

        warm_engine = PipelineEngine(disk_cache=tmp_path)
        warm = warm_engine.run(self._stages(calls), {})
        assert calls == ["source", "square"], "warm run must not recompute"

        assert np.array_equal(cold.artifact("y"), warm.artifact("y"))
        assert cold.artifact("total") == warm.artifact("total")
        assert [s.stage for s in cold.report.stages] == [
            s.stage for s in warm.report.stages
        ]
        assert all(s.cache_source == "disk" for s in warm.report.stages)
        info = warm_engine.disk_cache_info()
        assert info.hits == 2 and info.misses == 0

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        calls: list[str] = []
        PipelineEngine(disk_cache=tmp_path).run(self._stages(calls), {})
        warm_engine = PipelineEngine(disk_cache=tmp_path)
        warm_engine.run(self._stages(calls), {})
        again = warm_engine.run(self._stages(calls), {})
        assert all(s.cache_source == "memory" for s in again.report.stages)

    def test_changed_params_only_recompute_downstream(self, tmp_path):
        calls: list[str] = []
        PipelineEngine(disk_cache=tmp_path).run(self._stages(calls), {})
        calls.clear()

        stages = self._stages(calls)
        stages[1] = FunctionStage(
            "square",
            lambda x: {"y": x * x * 2, "total": float(x.sum())},
            inputs=("x",),
            outputs=("y", "total"),
            params={"scale": 2},
        )
        run = PipelineEngine(disk_cache=tmp_path).run(stages, {})
        assert calls == [], "source still served from disk"
        assert run.report.stats_for("source").cache_source == "disk"
        assert run.report.stats_for("square").cache_source == "compute"

    def test_clear_cache_clears_disk_too(self, tmp_path):
        calls: list[str] = []
        engine = PipelineEngine(disk_cache=tmp_path)
        engine.run(self._stages(calls), {})
        engine.clear_cache()
        assert engine.disk_cache_info().entries == 0

    def test_engine_without_disk_cache_reports_none(self):
        engine = PipelineEngine()
        assert engine.disk_cache is None
        assert engine.disk_cache_info() is None


class TestPipelineEquivalence:
    def test_cold_and_warm_pipeline_runs_are_identical(self, tmp_path, paper_suite):
        from repro.analysis.pipeline import WorkloadAnalysisPipeline

        def run_once():
            engine = PipelineEngine(disk_cache=tmp_path)
            pipeline = WorkloadAnalysisPipeline(
                characterization="sar", machine="A", engine=engine
            )
            return pipeline.run(paper_suite)

        cold, warm = run_once(), run_once()
        assert all(
            s.cache_source == "disk" for s in warm.run_report.stages
        )
        assert [s.stage for s in cold.run_report.stages] == [
            s.stage for s in warm.run_report.stages
        ]
        assert np.array_equal(
            cold.prepared_vectors.matrix, warm.prepared_vectors.matrix
        )
        assert np.array_equal(cold.som.weights, warm.som.weights)
        assert cold.positions == warm.positions
        assert cold.dendrogram == warm.dendrogram
        assert cold.cuts == warm.cuts
        assert cold.recommended_clusters == warm.recommended_clusters



# (module attribute patched, errno): a full disk at the rename, an I/O
# error creating the temp file.
_WRITE_FAULTS = [("os.replace", errno.ENOSPC), ("tempfile.mkstemp", errno.EIO)]


class TestWriteFaults:
    """A failed write degrades to a miss; it never fails the run."""

    @pytest.fixture(params=_WRITE_FAULTS, ids=lambda fault: fault[0])
    def break_disk(self, request, monkeypatch):
        """Call to make every later disk-cache write fail."""
        import repro.engine.diskcache as diskcache

        module, name = request.param[0].split(".")

        def fail(*args, **kwargs):
            raise OSError(request.param[1], os.strerror(request.param[1]))

        return lambda: monkeypatch.setattr(getattr(diskcache, module), name, fail)

    @pytest.fixture(scope="class")
    def uncached(self, paper_suite):
        from repro.analysis.pipeline import WorkloadAnalysisPipeline

        return WorkloadAnalysisPipeline(
            characterization="sar", machine="A"
        ).run(paper_suite)

    def test_put_returns_false_and_leaves_no_temp_file(
        self, tmp_path, break_disk, captured_warnings
    ):
        cache = DiskCache(tmp_path / "cache")
        break_disk()
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert cache.put(_key(), _outputs(), stage="s") is False
        assert cache.info().stores == 0
        assert registry.counter("repro_engine_disk_stores_total").value == 0
        leftovers = [
            p.name for p in (tmp_path / "cache").rglob("*") if p.is_file()
        ]
        assert leftovers == ["format"]
        assert len(captured_warnings) == 1
        assert "diskcache.write_failed" in captured_warnings[0].getMessage()
        assert cache.get(_key(), stage="s") is None

    def test_unwritable_format_stamp_is_a_warning(
        self, tmp_path, break_disk, captured_warnings
    ):
        break_disk()
        cache = DiskCache(tmp_path / "cache")
        assert list((tmp_path / "cache").iterdir()) == []
        assert len(captured_warnings) == 1
        assert cache.put(_key(), _outputs(), stage="s") is False

    def test_pipeline_run_equals_an_uncached_run(
        self, tmp_path, paper_suite, uncached, break_disk, captured_warnings
    ):
        from repro.analysis.pipeline import WorkloadAnalysisPipeline

        registry = MetricsRegistry()
        engine = PipelineEngine(disk_cache=tmp_path / "cache")
        break_disk()
        with use_metrics(registry):
            result = WorkloadAnalysisPipeline(
                characterization="sar", machine="A", engine=engine
            ).run(paper_suite)
        assert registry.counter("repro_engine_disk_stores_total").value == 0
        # One warning per stage whose write failed.
        assert len(captured_warnings) == len(result.run_report.stages)
        assert np.array_equal(
            result.prepared_vectors.matrix, uncached.prepared_vectors.matrix
        )
        assert np.array_equal(result.som.weights, uncached.som.weights)
        assert result.positions == uncached.positions
        assert result.dendrogram == uncached.dendrogram
        assert result.cuts == uncached.cuts
        assert result.recommended_clusters == uncached.recommended_clusters
