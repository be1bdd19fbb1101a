"""The persistent run ledger: recorder, JSONL store, engine wiring."""

from __future__ import annotations

import json
import os

import pytest

from repro.engine import FunctionStage, PipelineEngine
from repro.exceptions import ReproError
from repro.obs import (
    LEDGER_ENV,
    NULL_RECORDER,
    MetricsRegistry,
    RunLedger,
    RunRecorder,
    Tracer,
    current_recorder,
    ledger_path_from_env,
    use_metrics,
    use_recorder,
    use_tracer,
)
from repro.obs.ledger import new_run_id


def _stats(stage="reduce", wall=0.25, source="compute", hit=False):
    """Duck-typed StageStats stand-in."""

    class _S:
        pass

    s = _S()
    s.stage, s.wall_seconds, s.cache_source, s.cache_hit = (
        stage,
        wall,
        source,
        hit,
    )
    return s


def _record(command="sweep", **overrides):
    recorder = RunRecorder(command, overrides.pop("args", {"workers": 2}))
    for stats in overrides.pop("stages", [_stats()]):
        recorder.add_stage(stats)
    record = recorder.finish(**overrides)
    return record


class TestRunRecorder:
    def test_finish_produces_schema_versioned_record(self):
        record = _record()
        assert record["schema"] == 1
        assert record["command"] == "sweep"
        assert record["args"] == {"workers": 2}
        assert record["pid"] == os.getpid()
        assert record["exit_code"] == 0
        assert record["wall_seconds"] >= 0
        assert len(record["args_fingerprint"]) == 12
        assert record["run_id"]
        json.dumps(record)  # the whole record must be JSON-safe

    def test_fingerprint_ignores_key_order(self):
        a = RunRecorder("x", {"b": 1, "a": 2}).finish()
        b = RunRecorder("x", {"a": 2, "b": 1}).finish()
        assert a["args_fingerprint"] == b["args_fingerprint"]
        c = RunRecorder("x", {"a": 3, "b": 1}).finish()
        assert c["args_fingerprint"] != a["args_fingerprint"]

    def test_stages_and_cache_sources_from_stage_stats(self):
        record = _record(
            stages=[
                _stats("reduce", 0.5, "compute", False),
                _stats("cluster", 0.1, "memory", True),
                _stats("score_cuts", 0.2, "memory", True),
            ]
        )
        assert [s["stage"] for s in record["stages"]] == [
            "reduce",
            "cluster",
            "score_cuts",
        ]
        assert record["stages"][0]["wall_seconds"] == 0.5
        assert record["cache_sources"] == {"compute": 1, "memory": 2}

    def test_trace_stored_only_when_tracing_enabled(self):
        tracer = Tracer()
        with tracer.span("cli.sweep"):
            pass
        record = _record(tracer=tracer)
        assert [s["name"] for s in record["trace"]] == ["cli.sweep"]
        from repro.obs import NULL_TRACER

        assert _record(tracer=NULL_TRACER)["trace"] is None
        assert _record()["trace"] is None


class TestAmbientRecorder:
    def test_default_is_null_and_free(self):
        assert current_recorder() is NULL_RECORDER
        assert not NULL_RECORDER.active
        NULL_RECORDER.add_stage(_stats())  # no-op, no error

    def test_use_recorder_scopes_installation(self):
        recorder = RunRecorder("x")
        with use_recorder(recorder) as installed:
            assert installed is recorder
            assert current_recorder() is recorder
        assert current_recorder() is NULL_RECORDER

    def test_engine_feeds_stage_stats_through_ambient_recorder(self):
        recorder = RunRecorder("engine-run")
        stages = [
            FunctionStage("a", lambda source: source + 1, inputs=("source",), outputs=("x",)),
            FunctionStage("b", lambda x: x * 2, inputs=("x",), outputs=("y",)),
        ]
        with use_recorder(recorder):
            PipelineEngine().run(stages, {"source": 3})
            PipelineEngine().run(stages, {"source": 3})  # fresh engine, recompute
        names = [s["stage"] for s in recorder.stages]
        assert names == ["a", "b", "a", "b"]
        assert all(s["cache_source"] == "compute" for s in recorder.stages)

    def test_engine_reports_cache_hits_to_recorder(self):
        recorder = RunRecorder("cached")
        stages = [
            FunctionStage("a", lambda source: source + 1, inputs=("source",), outputs=("x",)),
        ]
        engine = PipelineEngine()
        with use_recorder(recorder):
            engine.run(stages, {"source": 3})
            engine.run(stages, {"source": 3})  # memory hit
        sources = [s["cache_source"] for s in recorder.stages]
        assert sources == ["compute", "memory"]
        assert [s["cache_hit"] for s in recorder.stages] == [False, True]


class TestRunLedger:
    def test_append_and_read_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        first = _record("sweep")
        second = _record("analyze")
        ledger.append(first)
        ledger.append(second)
        records = ledger.records()
        assert [r["command"] for r in records] == ["sweep", "analyze"]
        assert records[0] == first

    def test_append_creates_parent_directories(self, tmp_path):
        ledger = RunLedger(tmp_path / "deep" / "nested" / "runs.jsonl")
        ledger.append(_record())
        assert len(ledger.records()) == 1

    def test_append_requires_run_id(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        with pytest.raises(ReproError, match="no run_id"):
            ledger.append({"command": "sweep"})

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no ledger"):
            RunLedger(tmp_path / "absent.jsonl").records()

    def test_corrupt_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.append(_record("good"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{torn write\n\n[1, 2]\n")
        ledger.append(_record("also-good"))
        assert [r["command"] for r in ledger.records()] == [
            "good",
            "also-good",
        ]

    def test_find_by_position_index_and_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ids = [ledger.append(_record(f"cmd{i}")) for i in range(3)]
        assert ledger.find("first")["command"] == "cmd0"
        assert ledger.find("last")["command"] == "cmd2"
        assert ledger.find("1")["command"] == "cmd1"
        assert ledger.find("-1")["command"] == "cmd2"
        assert ledger.find(ids[1])["command"] == "cmd1"
        with pytest.raises(ReproError, match="out of range"):
            ledger.find("7")
        with pytest.raises(ReproError, match="no run matching"):
            ledger.find("zzz-nope")

    def test_find_rejects_ambiguous_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append({**_record("a"), "run_id": "run-aa"})
        ledger.append({**_record("b"), "run_id": "run-ab"})
        with pytest.raises(ReproError, match="ambiguous"):
            ledger.find("run-a")
        assert ledger.find("run-aa")["command"] == "a"

    def test_run_ids_are_unique(self):
        ids = {new_run_id("sweep") for _ in range(50)}
        assert len(ids) == 50


class TestStageCosts:
    def test_records_carry_available_cpus(self):
        from repro.engine.hostinfo import available_cpus

        assert _record()["available_cpus"] == available_cpus()

    def test_stage_costs_average_compute_walls_only(self, tmp_path):
        """Means per stage over compute executions; cache replays ignored."""
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(
            _record(stages=[_stats("reduce", wall=1.0, source="compute")])
        )
        ledger.append(
            _record(
                stages=[
                    _stats("reduce", wall=3.0, source="compute"),
                    _stats("cluster", wall=9.0, source="disk", hit=True),
                ]
            )
        )
        costs = ledger.stage_costs()
        assert costs["reduce"] == pytest.approx(2.0)
        assert "cluster" not in costs

    def test_stage_costs_honor_the_record_limit(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        for wall in (10.0, 2.0, 4.0):
            ledger.append(
                _record(stages=[_stats("reduce", wall=wall)])
            )
        assert ledger.stage_costs(limit=2)["reduce"] == pytest.approx(3.0)

    def test_stage_costs_empty_on_missing_ledger(self, tmp_path):
        assert RunLedger(tmp_path / "absent.jsonl").stage_costs() == {}

    def test_stage_costs_skip_malformed_records(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append({"run_id": "r-bad", "stages": "not-a-list"})
        ledger.append(
            {"run_id": "r-bad2", "stages": [{"stage": "reduce"}]}
        )
        ledger.append(
            _record(stages=[_stats("reduce", wall=5.0)])
        )
        assert ledger.stage_costs() == {"reduce": pytest.approx(5.0)}


class TestLedgerEnv:
    def test_env_variable_controls_path(self, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        assert ledger_path_from_env() is None
        monkeypatch.setenv(LEDGER_ENV, "")
        assert ledger_path_from_env() is None
        monkeypatch.setenv(LEDGER_ENV, "/tmp/runs.jsonl")
        assert ledger_path_from_env() == "/tmp/runs.jsonl"


class TestEndToEnd:
    def test_traced_metered_run_lands_in_ledger(self, tmp_path):
        """Recorder + engine + tracer + metrics, written and read back."""
        ledger = RunLedger(tmp_path / "runs.jsonl")
        tracer, metrics = Tracer(), MetricsRegistry()
        recorder = RunRecorder("analyze", {"suite": "paper"})
        stages = [
            FunctionStage("a", lambda source: source + 1, inputs=("source",), outputs=("x",)),
        ]
        with use_recorder(recorder), use_tracer(tracer), use_metrics(metrics):
            with tracer.span("cli.analyze"):
                PipelineEngine().run(stages, {"source": 3})
        ledger.append(
            recorder.finish(metrics=metrics, tracer=tracer, exit_code=0)
        )
        stored = ledger.find("last")
        assert stored["command"] == "analyze"
        assert [s["stage"] for s in stored["stages"]] == ["a"]
        assert stored["trace"][0]["name"] == "cli.analyze"
        assert (
            stored["metrics"]["repro_engine_cache_misses_total"] == 1
        )
