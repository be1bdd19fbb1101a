"""Durability tests: compaction, concurrent appends, torn final lines."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.exceptions import ReproError
from repro.obs.ledger import RunLedger

from tests.obs.test_cli_obs import stage, synthetic_run


def seeded(path, n=5):
    ledger = RunLedger(path)
    for i in range(n):
        ledger.append(
            synthetic_run(
                f"r{i}",
                timestamp=1754000000.0 + i,
                stages=stage("reduce", 1.0),
            )
        )
    return ledger


class TestCompaction:
    def test_keeps_the_newest_runs(self, tmp_path):
        ledger = seeded(tmp_path / "runs.jsonl", n=5)
        result = ledger.compact(keep_last=2)
        assert (result.kept, result.dropped) == (2, 3)
        assert result.bytes_after < result.bytes_before
        assert [r["run_id"] for r in ledger.records()] == ["r3", "r4"]

    def test_keep_more_than_present_is_a_noop_rewrite(self, tmp_path):
        ledger = seeded(tmp_path / "runs.jsonl", n=3)
        result = ledger.compact(keep_last=10)
        assert (result.kept, result.dropped) == (3, 0)
        assert len(ledger.records()) == 3

    def test_rejects_non_positive_keep(self, tmp_path):
        ledger = seeded(tmp_path / "runs.jsonl", n=1)
        with pytest.raises(ReproError, match="keep_last must be >= 1"):
            ledger.compact(keep_last=0)

    def test_drops_corrupt_lines_as_a_side_effect(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = seeded(path, n=3)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{torn garbage\n")
        ledger.compact(keep_last=10)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["run_id"].startswith("r") for line in lines)

    def test_rewrite_is_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = seeded(path, n=4)
        ledger.compact(keep_last=1)
        assert [p.name for p in tmp_path.iterdir()] == ["runs.jsonl"]

    def test_missing_ledger_is_a_clean_error(self, tmp_path):
        with pytest.raises(ReproError, match="no ledger"):
            RunLedger(tmp_path / "absent.jsonl").compact(keep_last=1)


class TestTornTail:
    def test_partial_final_line_is_skipped_by_windowed_read(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        seeded(path, n=3)
        # Simulate a crash mid-append: the final line is torn.
        full = path.read_bytes()
        extra = json.dumps(synthetic_run("torn")).encode()
        path.write_bytes(full + extra[: len(extra) // 2])
        records = RunLedger(path).records()[-2:]
        assert [r["run_id"] for r in records] == ["r1", "r2"]

    def test_corrupt_middle_line_does_not_shift_the_window(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        seeded(path, n=4)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # truncate r1 into garbage
        path.write_text("\n".join(lines) + "\n")
        records = RunLedger(path).records()[-3:]
        assert [r["run_id"] for r in records] == ["r0", "r2", "r3"]

    def test_size_bytes_zero_for_missing_file(self, tmp_path):
        assert RunLedger(tmp_path / "absent.jsonl").size_bytes() == 0


def _append_batch(path, worker, count):
    ledger = RunLedger(path)
    for i in range(count):
        ledger.append(
            synthetic_run(
                f"w{worker}-{i}",
                timestamp=1754000000.0 + i,
                stages=stage("reduce", 0.001),
            )
        )


def _append_large_batch(path, worker, count):
    ledger = RunLedger(path)
    for i in range(count):
        ledger.append({"run_id": f"w{worker}-{i}", "pad": "x" * 100_000})


class TestConcurrentAppend:
    def test_parallel_writers_never_interleave_records(self, tmp_path):
        """N processes hammering one ledger: every line stays parseable.

        The append path issues a single O_APPEND write per record, which
        POSIX makes atomic with respect to other appenders — so even
        under contention no line may ever be torn or interleaved.
        """
        path = tmp_path / "runs.jsonl"
        workers, per_worker = 4, 25
        ctx = multiprocessing.get_context("fork" if os.name == "posix" else "spawn")
        procs = [
            ctx.Process(target=_append_batch, args=(path, w, per_worker))
            for w in range(workers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0

        # Every single line must parse — no torn or interleaved writes.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == workers * per_worker
        run_ids = [json.loads(line)["run_id"] for line in lines]
        assert len(set(run_ids)) == workers * per_worker

        # And the high-level reader agrees, with per-worker order kept.
        records = RunLedger(path).records()
        assert len(records) == workers * per_worker
        for w in range(workers):
            ours = [
                r["run_id"]
                for r in records
                if r["run_id"].startswith(f"w{w}-")
            ]
            assert ours == [f"w{w}-{i}" for i in range(per_worker)]

    def test_parallel_large_records_add_no_blank_lines(self, tmp_path):
        """A record spanning pages is copied in over time; another
        appender checking for a torn tail must not see it half written
        and start a fresh line."""
        path = tmp_path / "runs.jsonl"
        workers, per_worker = 8, 30
        ctx = multiprocessing.get_context("fork" if os.name == "posix" else "spawn")
        procs = [
            ctx.Process(target=_append_large_batch, args=(path, w, per_worker))
            for w in range(workers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        data = path.read_bytes()
        assert b"\n\n" not in data and not data.startswith(b"\n")
        assert data.count(b"\n") == workers * per_worker
        assert len(RunLedger(path).records()) == workers * per_worker
