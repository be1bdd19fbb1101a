"""Workload ``service-mix``: warm ``repro-hmeans serve`` daemons, two clients.

A closed loop over two keep-alive connections to one daemon at a time.
Connection 1 sends
``/score`` back to back; the bodies vary with the seed (Table IV-VI
partitions, machine subsets, geometric/arithmetic/harmonic means).
Connection 2 cycles ``/analyze`` over a fixed set of warm keys (memo reads),
and every ``FRESH_EVERY``-th request asks for a seed the daemon has not seen,
so it computes and inserts into its memo while ``/score`` shares its CPU.
Every daemon walks the same sequence of fresh seeds from its start, so the
check after the window re-derives each fresh result once per run.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import shutil
import signal
import subprocess
import threading
import time
from pathlib import Path

import common

SCORE_BODIES = 24
# A fresh compute takes about 100 warm replays' time; one in 50 leaves the
# replays about a third of connection 2's time (some 1200 per 25 s run).
FRESH_EVERY = 50
# The window is spread over several daemons: each start is one set-up
# repeat, and one process's luck (memory layout, hash seed) does not set a
# run's figures.
DAEMONS = 5


def score_bodies(seed: int) -> list[dict]:
    from repro.data.partitions import partition_chain
    from repro.data.table3 import speedups_for_machine

    rng = random.Random(seed)
    columns = {name: speedups_for_machine(name) for name in ("A", "B")}
    subsets = (("A",), ("B",), ("A", "B"))
    bodies = []
    for _ in range(SCORE_BODIES):
        table = rng.choice(("table4", "table5", "table6"))
        clusters = rng.randint(2, 8)
        machines = rng.choice(subsets)
        bodies.append(
            {
                "measurements": {name: dict(columns[name]) for name in machines},
                "partition": [
                    list(block) for block in partition_chain(table)[clusters].blocks
                ],
                "mean": rng.choice(("geometric", "arithmetic", "harmonic")),
            }
        )
    return bodies


def warm_keys(seed: int) -> list[dict]:
    return [
        {"characterization": "sar", "machine": "A", "seed": seed},
        {"characterization": "sar", "machine": "B", "seed": seed},
        {"characterization": "methods", "seed": seed},
        {"characterization": "sar", "machine": "A", "seed": seed, "linkage": "average"},
    ]


def fresh_key(seed: int, index: int) -> dict:
    """The ``index``-th fresh-seed body: never a warm key, new to a new daemon."""
    return {
        "characterization": "sar",
        "machine": "AB"[index % 2],
        "seed": 1_000_000 + seed * 1000 + index,
    }


class Daemon:
    """One ``serve --port 0`` process; ``ready_s`` is start-to-listening."""

    def __init__(self, wd: Path, *, traced_out: Path | None = None) -> None:
        argv = ["serve", "--host", "127.0.0.1", "--port", "0"]
        env = common.child_env()
        if traced_out is None:
            command = common.CLI_PREFIX + argv
        else:
            command = [common.CLI_PREFIX[0], str(common.HERE / "traced_main.py")] + argv
            env["PERFBENCH_LAYERS_OUT"] = str(traced_out)
        self._stderr = open(wd / "daemon.err", "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=wd, env=env, stdout=subprocess.PIPE, stderr=self._stderr
        )
        line = self.process.stdout.readline().decode("utf-8", "replace")
        self.ready_s = time.perf_counter() - started
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


def post(
    connection: http.client.HTTPConnection, path: str, body: bytes
) -> tuple[int, bytes, float]:
    """One request on a keep-alive connection: (status, body, client wall)."""
    started = time.perf_counter()
    connection.request("POST", path, body, headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    data = response.read()
    return response.status, data, time.perf_counter() - started


def _encode(body: dict) -> bytes:
    return json.dumps(body).encode("utf-8")


def _start_warm(
    wd: Path, keys: list[dict], *, traced_out: Path | None = None
) -> tuple[Daemon, float]:
    """Start a daemon and compute the warm keys; returns it and the set-up wall."""
    started = time.perf_counter()
    daemon = Daemon(wd, traced_out=traced_out)
    connection = daemon.connection()
    try:
        for key in keys:
            status, _, _ = post(connection, "/analyze", _encode(key))
            if status != 200:
                raise RuntimeError(f"warming /analyze {key} answered {status}")
    except BaseException:
        daemon.stop()
        raise
    finally:
        connection.close()
    return daemon, time.perf_counter() - started


class Traffic:
    """Both clients' requests, latencies (ms) and response bodies."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.walls: dict[str, list[float]] = {"score": [], "compute": [], "replay": []}
        self.bodies = score_bodies(seed)
        self.encoded = [_encode(body) for body in self.bodies]
        self.keys = warm_keys(seed)
        self.score: list[tuple[int, int, bytes]] = []
        self.analyze: list[tuple[dict, int, bytes]] = []
        self._score_index = 0
        self._analyze_index = 0
        self._fresh_index = 0

    def run(self, daemon: Daemon, seconds: float) -> None:
        connections = (daemon.connection(), daemon.connection())
        self._fresh_index = 0  # a new daemon has seen none of the fresh seeds
        errors: list[BaseException] = []

        def guarded(loop, connection, deadline) -> None:
            try:
                loop(connection, deadline)
            except BaseException as error:  # re-raised below, on this thread
                errors.append(error)

        try:
            deadline = time.perf_counter() + seconds
            threads = [
                threading.Thread(target=guarded, args=(loop, connection, deadline))
                for loop, connection in zip((self._scores, self._analyzes), connections)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
        finally:
            for connection in connections:
                connection.close()

    def _scores(self, connection: http.client.HTTPConnection, deadline: float) -> None:
        while time.perf_counter() < deadline:
            index = self._score_index % len(self.encoded)
            status, data, wall = post(connection, "/score", self.encoded[index])
            self.score.append((index, status, data))
            self.walls["score"].append(wall * 1e3)
            self._score_index += 1

    def _analyzes(self, connection: http.client.HTTPConnection, deadline: float) -> None:
        while time.perf_counter() < deadline:
            fresh = self._analyze_index % FRESH_EVERY == FRESH_EVERY - 1
            if fresh:
                key = fresh_key(self.seed, self._fresh_index)
                self._fresh_index += 1
            else:
                key = self.keys[self._analyze_index % len(self.keys)]
            status, data, wall = post(connection, "/analyze", _encode(key))
            self.analyze.append((key, status, data))
            self.walls["compute" if fresh else "replay"].append(wall * 1e3)
            self._analyze_index += 1


def daemon_metrics(daemon: Daemon) -> dict[str, float]:
    """The daemon's own ``/score`` median and memo counters from ``/metricsz``."""
    connection = daemon.connection()
    try:
        connection.request("GET", "/metricsz")
        text = connection.getresponse().read().decode("utf-8")
    finally:
        connection.close()
    patterns = {
        "server_score_p50_ms": r'service_request_seconds\{endpoint="/score",'
        r'quantile="0.5",status="200"\} (\S+)',
        "memo_hits": r"^repro_engine_cache_hits_total (\S+)",
        "memo_misses": r"^repro_engine_cache_misses_total (\S+)",
    }
    values = {}
    for name, pattern in patterns.items():
        match = re.search(pattern, text, re.MULTILINE)
        values[name] = float(match.group(1)) if match else 0.0
    values["server_score_p50_ms"] *= 1e3
    return values


def check(traffics: list[Traffic], outcome: common.Outcome) -> None:
    """Every response is a 200 equal to what the library computes."""
    from repro.analysis.pipeline import WorkloadAnalysisPipeline
    from repro.serialization import analysis_result_to_dict
    from repro.service import ServiceRuntime
    from repro.service.http import json_response
    from repro.service.schemas import validate_analyze_request, validate_score_request
    from repro.som.som import SOMConfig
    from repro.workloads.suite import BenchmarkSuite

    runtime = ServiceRuntime()
    expected_score = [
        json_response(200, runtime.score(validate_score_request(body)))[1]
        for body in traffics[0].bodies
    ]
    for index, status, data in (row for traffic in traffics for row in traffic.score):
        outcome.op(
            status == 200 and data == expected_score[index],
            f"/score body {index}: status {status} or body differs from ServiceRuntime.score",
        )

    suite = BenchmarkSuite.paper_suite()
    expected: dict[str, dict] = {}
    for key, status, data in (row for traffic in traffics for row in traffic.analyze):
        name = json.dumps(key, sort_keys=True)
        if status != 200:
            outcome.op(False, f"/analyze {name}: status {status}")
            continue
        if name not in expected:
            request = validate_analyze_request(key)
            result = WorkloadAnalysisPipeline(
                characterization=request.characterization,
                machine=request.machine,
                som_config=SOMConfig(rows=8, columns=8, seed=request.seed),
                cluster_counts=request.cluster_counts,
                linkage=request.linkage,
                seed=request.seed,
            ).run(suite)
            expected[name] = json.loads(json.dumps(analysis_result_to_dict(result)))
        got = json.loads(data)["result"]
        outcome.op(got == expected[name], f"/analyze {name}: result differs from the library")


def untraced(seed: int, seconds: float) -> tuple[common.Outcome, dict, dict]:
    outcome = common.Outcome()
    wd = common.work_dir("service-mix")
    try:
        keys = warm_keys(seed)
        traffic = Traffic(seed)
        setup, ready, rss, servers = [], [], [], []
        for _ in range(DAEMONS):
            daemon, wall = _start_warm(wd, keys)
            try:
                setup.append(wall)
                ready.append(daemon.ready_s)
                traffic.run(daemon, seconds / DAEMONS)
                servers.append(daemon_metrics(daemon))
                rss.append(daemon.peak_rss_mb())
            finally:
                daemon.stop()
        check([traffic], outcome)
        # Raw walls, not rescaled by a reference kernel: the requests are
        # latency-bound, and the kernel's run-to-run swing (about 11% of its
        # mean) is larger than theirs (2-6%), so rescaling only adds noise.
        metrics = {
            "setup_s": common.trimmed_mean(setup),
            "peak_rss_mb": common.median(rss),
            "main_ms": common.trimmed_mean(traffic.walls["score"]),
            "alt_ms": common.trimmed_mean(traffic.walls["compute"]),
            "cached_ms": common.trimmed_mean(traffic.walls["replay"]),
        }
        detail = {
            "setup_s_samples": setup,
            "daemon_ready_s_samples": ready,
            "peak_rss_mb_samples": rss,
            "score_ms": common.summary(traffic.walls["score"]),
            "analyze_compute_ms": common.summary(traffic.walls["compute"]),
            "analyze_replay_ms": common.summary(traffic.walls["replay"]),
            "servers": servers,
            "score_per_s": len(traffic.walls["score"]) / seconds,
            "analyze_per_s": len(traffic.walls["replay"] + traffic.walls["compute"]) / seconds,
        }
        return outcome, metrics, detail
    finally:
        shutil.rmtree(wd, ignore_errors=True)


def traced(seed: int, seconds: float) -> tuple[common.Outcome, dict, dict]:
    outcome = common.Outcome()
    wd = common.work_dir("service-mix")
    daemon = None
    try:
        floors = common.import_floors(wd)
        keys = warm_keys(seed)
        # Half the window on a plain daemon, half on one with layer accounting.
        plain = Traffic(seed)
        daemon, _ = _start_warm(wd, keys)
        plain.run(daemon, seconds / 2)
        server = daemon_metrics(daemon)
        daemon.stop()
        dump = wd / "layers.json"
        traced_traffic = Traffic(seed)
        daemon, _ = _start_warm(wd, keys, traced_out=dump)
        traced_traffic.run(daemon, seconds / 2)
        daemon.stop()
        daemon = None
        snap = json.loads(dump.read_text())
        check([plain, traced_traffic], outcome)

        def per_call_ms(layer: str) -> float:
            calls = snap["calls"].get(layer, 0)
            return snap["self_seconds"].get(layer, 0.0) * 1e3 / calls if calls else 0.0

        def count_per_call(name: str, layer: str) -> float:
            calls = snap["calls"].get(layer, 0)
            return snap["counts"].get(name, 0.0) / calls if calls else 0.0

        kinds = ("score", "replay", "compute")
        walls = {kind: common.median(plain.walls[kind]) for kind in kinds}
        traced_walls = {kind: common.median(traced_traffic.walls[kind]) for kind in kinds}
        to_dict = per_call_ms("serialization.to_dict")
        compute_stages = {
            "characterization.characterize_ms": per_call_ms("characterization.characterize"),
            "characterization.preprocess_ms": per_call_ms("characterization.preprocess"),
            "som.fit_ms": per_call_ms("som.fit.sequential"),
            "som.reduce_other_ms": per_call_ms("som.reduce"),
            "cluster.fit_ms": per_call_ms("cluster.fit"),
            "core.score_cuts_ms": per_call_ms("core.score_cuts"),
            "analysis.recommend_ms": per_call_ms("analysis.recommend"),
        }
        steps = count_per_call("som.fit.sequential.steps", "som.fit.sequential")
        layers: dict[str, float] = dict(floors)
        layers.update(compute_stages)
        layers.update(
            {
                "som.steps": steps,
                "som.step_us": compute_stages["som.fit_ms"] * 1e3 / steps if steps else 0.0,
                "cluster.merges": count_per_call("cluster.fit.merges", "cluster.fit"),
                "cluster.cells_scanned": count_per_call("cluster.fit.cells_scanned", "cluster.fit"),
                "core.score_us": per_call_ms("core.score") * 1e3,
                "service.validate_us": per_call_ms("service.validate_score") * 1e3,
                "service.encode_us": per_call_ms("service.encode_score") * 1e3,
                "service.server_score_ms": server["server_score_p50_ms"],
                "service.transport_score_ms": walls["score"] - server["server_score_p50_ms"],
                "engine.memo_replay_ms": per_call_ms("engine.memo_replay")
                + per_call_ms("engine.pipeline_replay")
                + to_dict,
                "serialization.to_dict_ms": to_dict,
                "engine.memo_hits": server["memo_hits"],
                "engine.memo_misses": server["memo_misses"],
                "engine.memo_hit_ratio": server["memo_hits"]
                / max(1.0, server["memo_hits"] + server["memo_misses"]),
                "engine.overhead_ms": per_call_ms("engine.pipeline"),
            }
        )
        # What each request kind's client wall is made of; the rest is
        # the daemon's HTTP/asyncio/coalescing path and the socket.
        accounted = {
            "score": layers["service.transport_score_ms"]
            + per_call_ms("service.validate_score")
            + per_call_ms("core.score")
            + per_call_ms("service.encode_score"),
            "replay": per_call_ms("service.validate_analyze")
            + layers["engine.memo_replay_ms"]
            + per_call_ms("service.encode_analyze"),
            "compute": per_call_ms("service.validate_analyze")
            + per_call_ms("engine.analyze_compute")
            + layers["engine.overhead_ms"]
            + sum(compute_stages.values())
            + to_dict
            + per_call_ms("service.encode_analyze"),
        }
        layers.update(common.accounting(walls, traced_walls, accounted))
        detail = {
            "untraced_ms": walls,
            "traced_ms": traced_walls,
            "accounted_ms": accounted,
            "layer_self_ms_per_call": {layer: per_call_ms(layer) for layer in sorted(snap["calls"])},
            "calls": snap["calls"],
            "counts": snap["counts"],
            "server": server,
        }
        return outcome, layers, detail
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(wd, ignore_errors=True)
