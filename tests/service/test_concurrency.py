"""Coalescing and isolation guarantees under concurrent requests.

Two layers of assertion:

* **deterministic** (event-loop level): drive ``ScoringService._coalesce``
  directly with a compute gated on an event, so leader/follower
  interleaving is forced rather than raced — one compute call, one
  shared response object, regardless of how many awaiters pile up;
* **end-to-end** (HTTP level): N threads fire identical ``/analyze``
  requests at a live server; the engine's compute counter must show
  every stage executed exactly once, and every response must carry the
  identical analysis result.  M *distinct* concurrent requests must
  each get their own correct result (no cross-contamination through
  the shared in-flight map or engine cache).
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.service import ServiceRuntime, ServiceThread
from repro.service.app import ScoringService, _Response


class TestCoalescingMap:
    """Forced interleavings over the in-flight map (no sockets, no races)."""

    def test_concurrent_awaiters_share_one_compute(self):
        async def scenario():
            service = ScoringService(ServiceRuntime())
            await service.start()
            try:
                release = threading.Event()
                calls = []

                def compute():
                    calls.append(threading.get_ident())
                    release.wait(timeout=30)
                    return _Response(200, b'{"shared":true}\n')

                followers = [
                    asyncio.ensure_future(
                        service._coalesce("key-1", compute)
                    )
                    for _ in range(8)
                ]
                # Let every awaiter reach the shared task before the
                # (single) compute is allowed to finish.
                while not calls:
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.05)
                release.set()
                results = await asyncio.gather(*followers)
            finally:
                await service.drain()
            return calls, results

        calls, results = asyncio.run(scenario())
        assert len(calls) == 1, "compute must run exactly once per key"
        bodies = {r.body for r in results}
        assert bodies == {b'{"shared":true}\n'}
        assert sum(1 for r in results if r.leader) == 1
        assert sum(1 for r in results if not r.leader) == 7

    def test_distinct_keys_do_not_coalesce(self):
        async def scenario():
            service = ScoringService(ServiceRuntime(), max_concurrency=4)
            await service.start()
            try:
                calls: list[str] = []
                lock = threading.Lock()

                def compute_for(key):
                    def compute():
                        with lock:
                            calls.append(key)
                        return _Response(
                            200, json.dumps({"key": key}).encode() + b"\n"
                        )

                    return compute

                results = await asyncio.gather(
                    *[
                        service._coalesce(f"key-{i}", compute_for(f"key-{i}"))
                        for i in range(4)
                    ]
                )
            finally:
                await service.drain()
            return calls, results

        calls, results = asyncio.run(scenario())
        assert sorted(calls) == [f"key-{i}" for i in range(4)]
        for i, result in enumerate(results):
            assert json.loads(result.body)["key"] == f"key-{i}"
            assert result.leader

    def test_key_is_retired_after_completion(self):
        async def scenario():
            service = ScoringService(ServiceRuntime())
            await service.start()
            try:
                def compute():
                    return _Response(200, b"{}\n")

                await service._coalesce("key-x", compute)
                return dict(service._inflight)
            finally:
                await service.drain()

        assert asyncio.run(scenario()) == {}


class TestHttpConcurrency:
    def test_identical_requests_compute_each_stage_once(self, service_server):
        """N identical concurrent /analyze: single-compute, test-asserted."""
        client_count = 6
        request = {"machine": "A", "seed": 11}

        def fire(_):
            return service_server.client().analyze(request)

        with ThreadPoolExecutor(client_count) as pool:
            responses = list(pool.map(fire, range(client_count)))

        assert [status for status, _ in responses] == [200] * client_count
        # The engine compute counter is the ground truth: whatever the
        # leader/follower timing, each stage ran exactly once.
        counts = service_server.runtime.compute_counts
        assert counts, "analyze must execute engine stages"
        assert set(counts.values()) == {1}, counts
        # Every caller sees the identical analysis result.
        results = {
            json.dumps(payload["result"], sort_keys=True)
            for _, payload in responses
        }
        assert len(results) == 1

    def test_distinct_requests_do_not_cross_contaminate(self, service_server):
        """M distinct concurrent /analyze: each answer matches its request."""
        requests = [
            {"machine": "A"},
            {"machine": "B"},
            {"characterization": "methods", "machine": None},
        ]

        def fire(body):
            return body, service_server.client(timeout=120).analyze(body)

        with ThreadPoolExecutor(len(requests)) as pool:
            outcomes = list(pool.map(fire, requests))

        results = []
        for body, (status, payload) in outcomes:
            assert status == 200
            echoed = payload["request"]
            assert echoed["characterization"] == body.get(
                "characterization", "sar"
            )
            expected_machine = (
                body.get("machine", "A")
                if echoed["characterization"] == "sar"
                else None
            )
            assert echoed["machine"] == expected_machine
            assert payload["result"]["machine"] == expected_machine
            results.append(json.dumps(payload["result"], sort_keys=True))
        assert len(set(results)) == len(requests), (
            "distinct requests must produce distinct analyses"
        )
        # Three distinct chains: every stage computed once per chain.
        counts = service_server.runtime.compute_counts
        assert counts.get("reduce") == len(requests)

    def test_ledger_records_cover_every_request(self, service_server):
        client_count = 5
        request = {"machine": "A", "seed": 11}

        def fire(_):
            return service_server.client().analyze(request)

        with ThreadPoolExecutor(client_count) as pool:
            statuses = [s for s, _ in pool.map(fire, range(client_count))]
        assert statuses == [200] * client_count

        records = service_server.runtime.ledger.records()
        analyze_records = [
            r for r in records if r["command"] == "service:analyze"
        ]
        assert len(analyze_records) == client_count
        # One args fingerprint (identical requests), no torn/partial rows.
        assert len({r["args_fingerprint"] for r in analyze_records}) == 1
        assert all("coalesced" in r for r in analyze_records)
        # Stage walls are never double-counted: only non-coalesced
        # records carry stages, and their compute executions must sum
        # to the engine's compute counter (once per stage).
        computed = [
            s
            for r in analyze_records
            for s in r["stages"]
            if s["cache_source"] == "compute"
        ]
        stage_names = sorted(s["stage"] for s in computed)
        assert stage_names == sorted(service_server.runtime.compute_counts)

    def test_concurrent_distinct_requests_record_their_own_stages(
        self, service_server
    ):
        """Two concurrent /analyze with different keys: each ledger
        record holds exactly the six stages of its own engine run."""
        requests = [{"machine": "A", "seed": 21}, {"machine": "B", "seed": 22}]
        start = threading.Barrier(len(requests))

        def fire(body):
            client = service_server.client(timeout=120)
            start.wait(timeout=30)
            return client.analyze(body)

        with ThreadPoolExecutor(len(requests)) as pool:
            outcomes = list(pool.map(fire, requests))

        records = {
            r["args"]["machine"]: r
            for r in service_server.runtime.ledger.records()
            if r["command"] == "service:analyze"
        }
        assert sorted(records) == ["A", "B"]
        for body, (status, payload) in zip(requests, outcomes):
            assert status == 200
            record = records[body["machine"]]
            assert record["coalesced"] is False
            own = [
                (s["stage"], s["wall_seconds"], s["cache_source"])
                for s in payload["report"]["stages"]
            ]
            assert [
                (s["stage"], s["wall_seconds"], s["cache_source"])
                for s in record["stages"]
            ] == own
            assert [stage for stage, _, _ in own] == [
                "characterize",
                "preprocess",
                "reduce",
                "cluster",
                "score_cuts",
                "recommend",
            ]

    def test_metricsz_reports_the_engine_instruments(self, service_server):
        """The engine reports through the ambient registry, which each
        compute thread sets to its runtime's, so ``/metricsz`` shows a
        request's stage timings and cache counters."""
        client = service_server.client(timeout=120)
        assert client.analyze({"machine": "A"})[0] == 200
        assert client.analyze({"machine": "A"})[0] == 200  # warm replay
        status, text = client.metrics_text()
        assert status == 200
        for name in (
            "repro_engine_cache_hits_total",
            "repro_engine_cache_misses_total",
            'repro_engine_stage_seconds_count{stage="reduce"}',
        ):
            assert name in text, name


class TestTwoDaemons:
    def test_stopping_one_daemon_leaves_the_other_its_registry(self):
        """Each compute thread installs its own daemon's registry, so
        draining daemon A does not take the engine's instruments away
        from daemon B's ``/metricsz``."""
        first = ServiceThread(runtime=ServiceRuntime()).start()
        with ServiceThread(runtime=ServiceRuntime()) as second:
            first.stop()
            client = second.client(timeout=120)
            assert client.analyze({"machine": "A"})[0] == 200
            status, text = client.metrics_text()
        assert status == 200
        for name in (
            "repro_engine_cache_misses_total",
            'repro_engine_stage_seconds_count{stage="reduce"}',
            "repro_som_quantization_error",
        ):
            assert name in text, name
        assert "repro_engine_stage_seconds" not in (
            first.runtime.registry.render_prometheus()
        )
