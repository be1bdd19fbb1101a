"""Rendering of ledger records: runs table, flame view, stage diff."""

from __future__ import annotations

import pytest

from repro.exceptions import ReproError
from repro.obs.render import (
    render_diff,
    render_event,
    render_flame,
    render_runs_table,
    stage_walls,
)


def _run(run_id="run-1", command="analyze", stages=None, **extra):
    record = {
        "schema": 1,
        "run_id": run_id,
        "timestamp_unix": 1754000000.0,
        "command": command,
        "args_fingerprint": "abc123def456",
        "wall_seconds": 1.25,
        "stages": stages
        if stages is not None
        else [
            {"stage": "reduce", "wall_seconds": 0.8, "cache_source": "compute"},
            {"stage": "cluster", "wall_seconds": 0.2, "cache_source": "memory"},
        ],
        "cache_sources": {"compute": 1, "memory": 1},
    }
    record.update(extra)
    return record


def _span(name, start, end, children=(), **attrs):
    return {
        "name": name,
        "start_seconds": start,
        "end_seconds": end,
        "attributes": attrs,
        "children": list(children),
    }


class TestStageWalls:
    def test_repeated_stages_sum(self):
        record = _run(
            stages=[
                {"stage": "reduce", "wall_seconds": 0.4},
                {"stage": "reduce", "wall_seconds": 0.6},
                {"stage": "cluster", "wall_seconds": 0.1},
            ]
        )
        assert stage_walls(record) == {
            "reduce": pytest.approx(1.0),
            "cluster": pytest.approx(0.1),
        }

    def test_missing_stage_data_is_empty(self):
        assert stage_walls({"stages": None}) == {}
        assert stage_walls({}) == {}


class TestRunsTable:
    def test_lists_runs_newest_last(self):
        text = render_runs_table(
            [_run("run-old", "analyze"), _run("run-new", "sweep")]
        )
        assert text.index("run-old") < text.index("run-new")
        assert "2 run(s) shown (newest last)" in text
        assert "compute:1,memory:1" in text

    def test_limit_keeps_most_recent(self):
        records = [_run(f"run-{i}") for i in range(6)]
        text = render_runs_table(records, limit=2)
        assert "run-4" in text and "run-5" in text
        assert "run-0" not in text

    def test_empty_ledger_raises(self):
        with pytest.raises(ReproError, match="no runs"):
            render_runs_table([])

    def test_tolerates_sparse_records(self):
        text = render_runs_table([{"run_id": "bare"}])
        assert "bare" in text
        assert "?" in text  # unknown timestamp/command render as ?

    def test_source_column_classifies_command_prefix(self):
        text = render_runs_table(
            [
                _run("r-cli", "pipeline"),
                _run("r-bench", "bench:engine_caching"),
                _run("r-svc", "service:analyze"),
            ]
        )
        header, separator, *rows = text.splitlines()
        assert "source" in header
        assert "cli" in rows[0]
        assert "bench" in rows[1]
        assert "service" in rows[2]


class TestFlame:
    def test_traced_run_renders_nested_tree(self):
        trace = [
            _span(
                "cli.sweep",
                0.0,
                1.0,
                children=[
                    _span(
                        "sweep",
                        0.1,
                        0.9,
                        children=[_span("sweep.variant", 0.1, 0.5)],
                    )
                ],
            )
        ]
        text = render_flame(_run(trace=trace), width=20)
        lines = text.splitlines()
        assert any(l.startswith("cli.sweep") for l in lines)
        assert any(l.startswith("  sweep ") for l in lines)
        assert any(l.startswith("    sweep.variant") for l in lines)
        assert "1000.0ms" in text
        # Bars scale to the longest root: the root gets the full width.
        root_line = next(l for l in lines if l.startswith("cli.sweep"))
        assert "█" * 20 in root_line

    def test_max_depth_prunes_deep_spans(self):
        deep = _span("lvl0", 0, 1, children=[
            _span("lvl1", 0, 1, children=[_span("lvl2", 0, 1)])
        ])
        shallow = render_flame(_run(trace=[deep]), max_depth=2)
        assert "lvl1" in shallow and "lvl2" not in shallow
        full = render_flame(_run(trace=[deep]), max_depth=None)
        assert "lvl2" in full

    def test_untraced_run_falls_back_to_stage_bars(self):
        text = render_flame(_run())
        assert "no trace stored" in text
        assert "reduce" in text and "cluster" in text
        # Sorted by wall descending: reduce (0.8s) before cluster (0.2s).
        assert text.index("reduce") < text.index("cluster")

    def test_run_without_any_data_says_so(self):
        text = render_flame(_run(stages=[]))
        assert "no trace or stage data" in text

    def test_header_always_names_the_run(self):
        for record in (_run(), _run(trace=[_span("s", 0, 1)])):
            assert "run run-1" in render_flame(record)
            assert "command=analyze" in render_flame(record)


class TestDiff:
    def test_reports_per_stage_delta_and_total(self):
        a = _run("run-a", stages=[{"stage": "reduce", "wall_seconds": 1.0}])
        b = _run("run-b", stages=[{"stage": "reduce", "wall_seconds": 1.5}])
        text, regressed = render_diff(a, b)
        assert "+50.0%" in text
        assert "stage total: 1000.0ms -> 1500.0ms (+50.0%)" in text
        assert not regressed  # no threshold -> never regressed

    def test_threshold_flags_regression_and_sets_flag(self):
        a = _run("run-a", stages=[{"stage": "reduce", "wall_seconds": 1.0}])
        b = _run("run-b", stages=[{"stage": "reduce", "wall_seconds": 1.5}])
        text, regressed = render_diff(a, b, threshold=10.0)
        assert regressed
        assert "<-- REGRESSION" in text
        assert "REGRESSED: reduce slower than +10% threshold" in text

    def test_within_threshold_is_ok(self):
        a = _run("run-a", stages=[{"stage": "reduce", "wall_seconds": 1.0}])
        b = _run("run-b", stages=[{"stage": "reduce", "wall_seconds": 1.05}])
        text, regressed = render_diff(a, b, threshold=10.0)
        assert not regressed
        assert "ok: no stage slower than +10% threshold" in text

    def test_improvement_is_marked(self):
        a = _run("run-a", stages=[{"stage": "reduce", "wall_seconds": 2.0}])
        b = _run("run-b", stages=[{"stage": "reduce", "wall_seconds": 1.0}])
        text, regressed = render_diff(a, b, threshold=10.0)
        assert "-50.0%" in text
        assert "improved" in text
        assert not regressed

    def test_added_and_removed_stages_listed_not_regressed(self):
        a = _run("run-a", stages=[{"stage": "old", "wall_seconds": 1.0}])
        b = _run("run-b", stages=[{"stage": "new", "wall_seconds": 9.0}])
        text, regressed = render_diff(a, b, threshold=1.0)
        assert "added" in text and "removed" in text
        assert not regressed

    def test_no_stage_data_raises(self):
        with pytest.raises(ReproError, match="stage data"):
            render_diff(_run(stages=[]), _run(stages=[]))

    def test_zero_baseline_renders_inf(self):
        a = _run("run-a", stages=[{"stage": "s", "wall_seconds": 0.0}])
        b = _run("run-b", stages=[{"stage": "s", "wall_seconds": 0.5}])
        text, _ = render_diff(a, b)
        assert "+inf%" in text

    def test_header_shows_both_runs(self):
        a = _run("run-a", stages=[{"stage": "s", "wall_seconds": 1.0}])
        b = _run("run-b", stages=[{"stage": "s", "wall_seconds": 1.0}])
        text, _ = render_diff(a, b)
        assert "a: run-a" in text and "b: run-b" in text


class TestRenderEvent:
    """`obs tail` line formats: one aligned line per live event."""

    def test_stage_started(self):
        line = render_event(3, "stage.started", {"stage": "reduce"})
        assert line == "    3  stage.started    reduce ..."

    def test_stage_finished_shows_wall_and_cache_source(self):
        line = render_event(
            4,
            "stage.finished",
            {"stage": "reduce", "wall_seconds": 0.0413, "cache_source": "disk"},
        )
        assert "reduce" in line and "41.3ms" in line and "[disk]" in line

    def test_som_epoch_optional_fields(self):
        bare = render_event(5, "som.epoch", {"epoch": 2})
        assert "epoch 2" in bare and "qe=" not in bare
        full = render_event(
            6,
            "som.epoch",
            {"epoch": 2, "wall_seconds": 0.001, "quantization_error": 0.25},
        )
        assert "qe=0.250000" in full and "1.0ms" in full

    def test_som_qe(self):
        line = render_event(7, "som.qe", {"step": 9, "value": 0.5})
        assert "step 9" in line and "qe=0.500000" in line

    def test_run_lifecycle_leads_with_run_id(self):
        line = render_event(
            1, "run.started", {"run_id": "r-1", "endpoint": "analyze"}
        )
        assert "r-1 endpoint=analyze" in line

    def test_unknown_event_falls_back_to_sorted_kv(self):
        line = render_event(8, "custom.event", {"b": 2, "a": 1})
        assert line.endswith("a=1 b=2")

    def test_seq_is_right_aligned_in_five_columns(self):
        assert render_event(12345, "x", {}).startswith("12345  ")
