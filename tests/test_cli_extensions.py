"""Unit tests for the extension CLI commands (subset/confidence/solve)."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestSubsetCommand:
    def test_default_six_clusters(self, capsys):
        assert main(["subset"]) == 0
        output = capsys.readouterr().out
        assert "representatives (6)" in output
        assert "measurement saved" in output

    def test_cluster_count_option(self, capsys):
        assert main(["subset", "--clusters", "3"]) == 0
        output = capsys.readouterr().out
        assert "representatives (3)" in output

    def test_rejects_out_of_range_count(self):
        with pytest.raises(SystemExit):
            main(["subset", "--clusters", "20"])


class TestConfidenceCommand:
    def test_prints_three_intervals(self, capsys):
        assert main(["confidence", "--resamples", "50"]) == 0
        output = capsys.readouterr().out
        assert "plain GM, machine A" in output
        assert "6-cluster HGM ratio A/B" in output
        assert output.count("[") == 3


class TestSolveCommand:
    def test_solves_table4_uniquely(self, capsys):
        assert main(["solve", "--table", "4", "--tolerance", "0.006"]) == 0
        output = capsys.readouterr().out
        assert "1 dendrogram-consistent chain(s)" in output
        assert "k=8" in output

    def test_too_tight_tolerance_finds_nothing(self, capsys):
        assert main(["solve", "--table", "5", "--tolerance", "0.0001"]) == 0
        output = capsys.readouterr().out
        assert "0 dendrogram-consistent chain(s)" in output


class TestReportCommand:
    def test_report_has_all_sections(self, capsys):
        assert main(["report", "--characterization", "methods"]) == 0
        output = capsys.readouterr().out
        assert "Workload distribution (SOM)" in output
        assert "Redundancy diagnostics" in output
        assert "recommended cluster count" in output


class TestExportCommand:
    def test_writes_json(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert main(
            ["export", "--characterization", "methods", "--output", str(target)]
        ) == 0
        assert target.exists()
        from repro.serialization import load_json

        data = load_json(target)
        assert data["type"] == "analysis-result"
        assert len(data["cuts"]) == 7


class TestMicroCharacterizationOption:
    def test_som_command_accepts_micro(self, capsys):
        assert main(["som", "--characterization", "micro"]) == 0
        output = capsys.readouterr().out
        assert "microarchitecture-independent" in output


class TestPipelineAndDendrogramCommands:
    def test_pipeline_command(self, capsys):
        assert main(["pipeline", "--characterization", "methods"]) == 0
        output = capsys.readouterr().out
        assert "recommended cluster count" in output
        assert "Geometric Mean" in output

    def test_dendrogram_command(self, capsys):
        assert main(["dendrogram", "--characterization", "methods"]) == 0
        output = capsys.readouterr().out
        assert "[d=" in output


class TestSweepPlanFlags:
    def test_dry_run_prints_plan_without_executing(self, capsys, tmp_path):
        assert (
            main(
                [
                    "sweep",
                    "--linkages",
                    "complete,average",
                    "--dry-run",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "sweep plan: 2 variant(s)" in output
        assert "complete" in output and "average" in output
        # Nothing executed: the plan renders instead of the results table.
        assert "HGM A" not in output
        assert "engine cache" not in output

    def test_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--linkages", "complete", "--workers", "2", "--dry-run"])
        assert "--workers" in capsys.readouterr().err

    def test_dry_run_predicts_replay_after_a_real_run(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["sweep", "--linkages", "complete", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert (
            main(["sweep", "--linkages", "complete", "--cache-dir", cache, "--dry-run"])
            == 0
        )
        output = capsys.readouterr().out
        assert "replay (cached)" in output
        assert "disk 6/6" in output


class TestBatchPipelineFlags:
    @pytest.fixture(scope="class")
    def library_result(self):
        from repro.analysis.pipeline import WorkloadAnalysisPipeline
        from repro.workloads.suite import BenchmarkSuite

        return WorkloadAnalysisPipeline(
            characterization="sar", machine="A", seed=11, som_mode="batch"
        ).run(BenchmarkSuite.paper_suite())

    @pytest.mark.parametrize(
        "extra", [[], ["--bmu-strategy", "pruned"]], ids=["exact", "pruned"]
    )
    def test_batch_pipeline_matches_library(self, capsys, library_result, extra):
        assert main(["pipeline", "--som-mode", "batch", *extra]) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = library_result.recommended_clusters
        assert f"recommended cluster count: {expected}" in lines
        for cut in library_result.cuts:
            row = next(
                line for line in lines if line.startswith(f"{cut.clusters} Clusters ")
            )
            assert row.split()[2:4] == [
                f"{cut.scores['A']:.2f}",
                f"{cut.scores['B']:.2f}",
            ]

    def test_pruned_strategy_requires_batch_mode(self, capsys):
        assert main(["pipeline", "--bmu-strategy", "pruned"]) == 1
        assert "batch" in capsys.readouterr().err
