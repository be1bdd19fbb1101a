"""CLI-level tests for the --trace / --metrics / -v observability flags."""

from __future__ import annotations

import json
import logging

import pytest

from repro.cli import main
from repro.obs import NULL_TRACER, current_metrics, current_tracer
from repro.obs.log import ROOT_LOGGER_NAME

PAPER_STAGES = (
    "characterize",
    "preprocess",
    "reduce",
    "cluster",
    "score_cuts",
    "recommend",
)


@pytest.fixture(autouse=True)
def quiet_logging():
    """Reset repro logging configured by main() so tests stay independent."""
    yield
    root = logging.getLogger(ROOT_LOGGER_NAME)
    root.handlers[:] = []
    root.setLevel(logging.NOTSET)


class TestPipelineTraceAndMetrics:
    def test_acceptance_command_produces_chrome_trace_and_metrics(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.txt"
        assert (
            main(
                [
                    "pipeline",
                    "--machine",
                    "A",
                    "--trace",
                    str(trace_path),
                    "--metrics",
                    str(metrics_path),
                    "--stats",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "SOM:" in output  # the new --stats summary line
        assert "epochs" in output

        document = json.loads(trace_path.read_text())
        names = [event["name"] for event in document["traceEvents"]]
        assert names[0] == "cli.pipeline"
        for stage in PAPER_STAGES:
            assert f"stage.{stage}" in names
        assert names.count("som.epoch") == 500  # 13 samples default schedule
        assert document["displayTimeUnit"] == "ms"

        metrics_text = metrics_path.read_text()
        for family in (
            "repro_engine_stage_seconds",
            "repro_engine_cache_misses_total",
            "repro_som_quantization_error",
            "repro_som_topographic_error",
            "repro_cluster_merges_total",
            "repro_cuts_scored_total",
            "repro_recommended_clusters",
        ):
            assert family in metrics_text

    def test_jsonl_suffix_writes_one_record_per_span(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main(["pipeline", "--trace", str(trace_path)]) == 0
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert all("id" in record and "depth" in record for record in records)
        names = {record["name"] for record in records}
        assert {f"stage.{s}" for s in PAPER_STAGES} <= names

    def test_verbose_flag_emits_key_value_logs(self, tmp_path, capsys):
        assert main(["pipeline", "-v"]) == 0
        err = capsys.readouterr().err
        assert "repro.engine engine.run" in err
        assert "stages=6" in err

    def test_ambient_state_restored_after_main(self, tmp_path):
        before_metrics = current_metrics()
        assert main(["pipeline", "--trace", str(tmp_path / "t.json")]) == 0
        assert current_tracer() is NULL_TRACER
        assert current_metrics() is before_metrics

    def test_flags_work_on_other_subcommands(self, tmp_path, capsys):
        trace_path = tmp_path / "gaming.json"
        assert main(["gaming", "--trace", str(trace_path)]) == 0
        document = json.loads(trace_path.read_text())
        assert document["traceEvents"][0]["name"] == "cli.gaming"


def synthetic_run(
    run_id, *, command="sweep", timestamp=1754000000.0, stages=()
):
    """A hand-built ledger record with controllable stage walls."""
    return {
        "schema": 1,
        "run_id": run_id,
        "timestamp_unix": timestamp,
        "command": command,
        "args": {},
        "args_fingerprint": "a" * 12,
        "pid": 1,
        "wall_seconds": sum(s["wall_seconds"] for s in stages),
        "exit_code": 0,
        "stages": list(stages),
        "cache_sources": {},
        "metrics": {},
        "trace": None,
    }


def stage(name, wall, *, cache_hit=False):
    return [{"stage": name, "wall_seconds": wall, "cache_hit": cache_hit}]


class TestLedgerRecording:
    def test_ledger_flag_appends_full_record(self, tmp_path, capsys):
        from repro.obs import RunLedger

        ledger_path = tmp_path / "runs.jsonl"
        trace_path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "pipeline",
                    "--ledger",
                    str(ledger_path),
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        (record,) = RunLedger(ledger_path).records()
        assert record["command"] == "pipeline"
        assert record["exit_code"] == 0
        stage_names = {s["stage"] for s in record["stages"]}
        assert {f"{s}" for s in PAPER_STAGES} <= stage_names
        assert record["trace"][0]["name"] == "cli.pipeline"
        assert record["metrics"]["repro_engine_cache_misses_total"] >= 1
        # Observability flags are excluded from the fingerprinted args.
        assert "ledger" not in record["args"]
        assert "trace" not in record["args"]

    def test_env_variable_enables_recording(self, tmp_path, monkeypatch):
        from repro.obs import LEDGER_ENV, RunLedger

        ledger_path = tmp_path / "envruns.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(ledger_path))
        assert main(["gaming"]) == 0
        (record,) = RunLedger(ledger_path).records()
        assert record["command"] == "gaming"
        assert record["trace"] is None  # untraced run stores no spans

    def test_unrecorded_without_flag_or_env(self, tmp_path, monkeypatch):
        from repro.obs import LEDGER_ENV

        monkeypatch.delenv(LEDGER_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["gaming"]) == 0
        assert not (tmp_path / "results" / "runs.jsonl").exists()

    def test_failed_run_recorded_with_exit_code_1(self, tmp_path, capsys):
        from repro.obs import RunLedger

        ledger_path = tmp_path / "runs.jsonl"
        assert (
            main(["sweep", "--linkages", ",", "--ledger", str(ledger_path)])
            == 1
        )
        assert "error:" in capsys.readouterr().err
        (record,) = RunLedger(ledger_path).records()
        assert record["command"] == "sweep"
        assert record["exit_code"] == 1

    def test_unusable_cache_dir_recorded_with_exit_code_1(
        self, tmp_path, capsys
    ):
        from repro.obs import RunLedger

        (tmp_path / "afile").write_text("not a directory")
        ledger_path = tmp_path / "runs.jsonl"
        argv = [
            "pipeline", "--machine", "A",
            "--cache-dir", str(tmp_path / "afile" / "sub"),
            "--ledger", str(ledger_path),
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "cannot create cache directory" in err
        assert "Traceback" not in err
        (record,) = RunLedger(ledger_path).records()
        assert record["command"] == "pipeline"
        assert record["exit_code"] == 1


class TestObsCommands:
    @pytest.fixture
    def seeded_ledger(self, tmp_path):
        """A ledger holding a baseline run and a 50%-slower rerun."""
        from repro.obs import RunLedger

        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.append(
            synthetic_run(
                "run-base",
                command="pipeline",
                stages=[
                    {"stage": "reduce", "wall_seconds": 1.0},
                    {"stage": "cluster", "wall_seconds": 0.1},
                ],
            )
        )
        ledger.append(
            synthetic_run(
                "run-slow",
                command="pipeline",
                stages=[
                    {"stage": "reduce", "wall_seconds": 1.5},
                    {"stage": "cluster", "wall_seconds": 0.1},
                ],
            )
        )
        return path

    def test_obs_runs_lists_records(self, seeded_ledger, capsys):
        assert main(["obs", "runs", "--ledger", str(seeded_ledger)]) == 0
        out = capsys.readouterr().out
        assert "run-base" in out and "run-slow" in out
        assert "2 run(s) shown" in out

    def test_obs_show_renders_stage_bars(self, seeded_ledger, capsys):
        assert main(["obs", "show", "last", "--ledger", str(seeded_ledger)]) == 0
        out = capsys.readouterr().out
        assert "run run-slow" in out
        assert "reduce" in out and "█" in out

    def test_obs_diff_within_threshold_exits_zero(self, seeded_ledger, capsys):
        assert (
            main(
                [
                    "obs",
                    "diff",
                    "first",
                    "last",
                    "--ledger",
                    str(seeded_ledger),
                    "--threshold",
                    "100",
                ]
            )
            == 0
        )
        assert "ok: no stage slower" in capsys.readouterr().out

    def test_obs_diff_over_threshold_exits_one(self, seeded_ledger, capsys):
        assert (
            main(
                [
                    "obs",
                    "diff",
                    "run-base",
                    "run-slow",
                    "--ledger",
                    str(seeded_ledger),
                    "--threshold",
                    "10",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "<-- REGRESSION" in out
        assert "REGRESSED: reduce" in out

    def test_obs_commands_are_not_recorded(self, seeded_ledger, capsys):
        from repro.obs import RunLedger

        before = len(RunLedger(seeded_ledger).records())
        assert main(["obs", "runs", "--ledger", str(seeded_ledger)]) == 0
        assert len(RunLedger(seeded_ledger).records()) == before

    def test_missing_ledger_is_a_clean_error(self, tmp_path, capsys):
        assert (
            main(
                ["obs", "runs", "--ledger", str(tmp_path / "absent.jsonl")]
            )
            == 1
        )
        assert "error:" in capsys.readouterr().err

    def test_traced_ledger_run_shows_flame(self, tmp_path, capsys):
        from repro.obs import RunLedger

        path = tmp_path / "runs.jsonl"
        record = synthetic_run("run-traced", command="pipeline")
        record["trace"] = [
            {
                "name": "cli.pipeline",
                "start_seconds": 0.0,
                "end_seconds": 1.0,
                "attributes": {},
                "children": [
                    {
                        "name": "stage.reduce",
                        "start_seconds": 0.1,
                        "end_seconds": 0.9,
                        "attributes": {"worker_pid": 77},
                        "children": [],
                    }
                ],
            }
        ]
        RunLedger(path).append(record)
        assert main(["obs", "show", "run-traced", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cli.pipeline" in out
        assert "  stage.reduce" in out
        assert "[pid 77]" in out


@pytest.fixture
def seeded_ledger(tmp_path):
    """Four same-fingerprint sweep runs, the last one 2x slower."""
    from repro.obs import RunLedger

    path = tmp_path / "runs.jsonl"
    ledger = RunLedger(path)
    for i, wall in enumerate([1.0, 1.0, 1.0, 2.0]):
        ledger.append(
            synthetic_run(
                f"s{i + 1}",
                timestamp=1754000000.0 + i,
                stages=stage("reduce", wall)
                + stage("cluster", 0.5, cache_hit=i > 0),
            )
        )
    return path


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


class TestJsonByteIdentity:
    def test_repeat_invocations_are_byte_identical(self, seeded_ledger, capsys):
        for argv in (
            ["obs", "runs", "--json", "--ledger", str(seeded_ledger)],
            ["obs", "show", "s2", "--json", "--ledger", str(seeded_ledger)],
            ["obs", "diff", "s1", "s4", "--json", "--ledger", str(seeded_ledger)],
        ):
            _, first = run_cli(argv, capsys)
            _, second = run_cli(argv, capsys)
            assert first == second
            _assert_keys_sorted(json.loads(first))


def _assert_keys_sorted(value):
    """Every mapping in the document must have its keys sorted."""
    if isinstance(value, dict):
        assert list(value) == sorted(value)
        for child in value.values():
            _assert_keys_sorted(child)
    elif isinstance(value, list):
        for child in value:
            _assert_keys_sorted(child)


class TestObsJsonModes:
    def test_runs_json_is_schema_versioned(self, seeded_ledger, capsys):
        code, out = run_cli(
            ["obs", "runs", "--json", "--ledger", str(seeded_ledger)], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["kind"] == "obs-runs"
        assert [r["run_id"] for r in payload["runs"]] == ["s1", "s2", "s3", "s4"]
        assert [r["source"] for r in payload["runs"]] == ["cli"] * 4

    def test_runs_json_source_tracks_command_prefix(self, tmp_path, capsys):
        from repro.obs import RunLedger

        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        for run_id, command in (
            ("c1", "pipeline"),
            ("b1", "bench:service"),
            ("v1", "service:score"),
            ("v2", "service:analyze"),
        ):
            ledger.append(
                synthetic_run(run_id, command=command, timestamp=1754000000.0)
            )
        code, out = run_cli(
            ["obs", "runs", "--json", "--ledger", str(path)], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert [(r["run_id"], r["source"]) for r in payload["runs"]] == [
            ("c1", "cli"),
            ("b1", "bench"),
            ("v1", "service"),
            ("v2", "service"),
        ]

    def test_show_json_dumps_the_raw_record(self, seeded_ledger, capsys):
        code, out = run_cli(
            ["obs", "show", "s4", "--json", "--ledger", str(seeded_ledger)],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["run_id"] == "s4"
        assert record["wall_seconds"] == 2.5
        assert len(record["stages"]) == 2

    def test_diff_json_exit_code_tracks_threshold(self, seeded_ledger, capsys):
        code, out = run_cli(
            [
                "obs", "diff", "s1", "s4",
                "--json", "--threshold", "50",
                "--ledger", str(seeded_ledger),
            ],
            capsys,
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["kind"] == "obs-diff"
        assert payload["regressed"] == ["reduce"]
        reduce_row = next(
            s for s in payload["stages"] if s["stage"] == "reduce"
        )
        assert reduce_row["status"] == "regression"
        assert reduce_row["change_pct"] == 100.0


class TestPruneAndSizeWarning:
    def test_prune_keeps_newest_runs(self, seeded_ledger, capsys):
        from repro.obs import RunLedger

        code, out = run_cli(
            [
                "obs", "prune", "--keep", "2",
                "--ledger", str(seeded_ledger),
            ],
            capsys,
        )
        assert code == 0
        assert "kept 2 run(s), dropped 2" in out
        remaining = RunLedger(seeded_ledger).records()
        assert [r["run_id"] for r in remaining] == ["s3", "s4"]

    def test_runs_warns_past_the_size_threshold(
        self, seeded_ledger, capsys, monkeypatch
    ):
        import repro.obs

        monkeypatch.setattr(repro.obs, "SIZE_WARNING_BYTES", 64)
        code, out = run_cli(
            ["obs", "runs", "--ledger", str(seeded_ledger)], capsys
        )
        assert code == 0
        assert "obs prune --keep N" in out

    def test_runs_stays_quiet_below_the_threshold(self, seeded_ledger, capsys):
        code, out = run_cli(
            ["obs", "runs", "--ledger", str(seeded_ledger)], capsys
        )
        assert code == 0
        assert "warning" not in out
