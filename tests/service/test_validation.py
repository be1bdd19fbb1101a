"""Structured 4xx behaviour: malformed, oversize, unknown, unroutable.

Every rejection must be a JSON body of the shape
``{"error": {"detail": ..., "status": ...}}`` — never a hung
connection, a stack trace, or a bare empty reply.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.service import ServiceRuntime, ServiceThread
from repro.service.schemas import (
    ValidationError,
    validate_analyze_request,
    validate_score_request,
)

VALID_SCORE = {
    "measurements": {"A": {"x": 2.0, "y": 4.0}},
    "partition": [["x"], ["y"]],
}


def _error(body: bytes) -> dict:
    payload = json.loads(body.decode("utf-8"))
    assert set(payload) == {"error"}
    assert payload["error"]["status"] >= 400
    return payload["error"]


class TestHttpRejections:
    def test_unknown_field_is_structured_400(self, service_client):
        status, body = service_client.post_json(
            "/score", dict(VALID_SCORE, partitions=[["x"]])
        )
        error = _error(body)
        assert status == 400
        assert "unknown field" in error["detail"]
        assert "partitions" in error["detail"]
        assert "partition" in error["detail"]  # accepted names are listed
        assert error["field"] == "partitions"

    def test_malformed_json_body_is_structured_400(self, service_client):
        status, body = service_client.request(
            "POST", "/score", b"{not json", headers={"Content-Type": "application/json"}
        )
        assert status == 400
        assert "not valid JSON" in _error(body)["detail"]

    def test_empty_body_is_structured_400(self, service_client):
        status, body = service_client.request("POST", "/score", b"")
        assert status == 400
        assert "empty" in _error(body)["detail"]

    def test_non_object_body_is_structured_400(self, service_client):
        status, body = service_client.post_json("/analyze", [1, 2, 3])
        assert status == 400
        assert "JSON object" in _error(body)["detail"]

    def test_oversize_payload_is_413_before_compute(self, tmp_path):
        runtime = ServiceRuntime(ledger_path=str(tmp_path / "runs.jsonl"))
        with ServiceThread(runtime=runtime, max_body=1024) as server:
            big = dict(
                VALID_SCORE,
                measurements={
                    "A": {f"workload-{i}": 1.0 + i for i in range(200)}
                },
            )
            status, body = server.client().post_json("/score", big)
            assert status == 413
            detail = _error(body)["detail"]
            assert "1024" in detail and "exceeds" in detail
            # Refused at the transport: no compute, no ledger record
            # (nothing has been appended, so the file was never created).
            assert runtime.compute_counts == {}
            assert not (tmp_path / "runs.jsonl").exists()

    def test_unroutable_path_is_404(self, service_client):
        status, body = service_client.request("GET", "/nope")
        assert status == 404
        assert "/nope" in _error(body)["detail"]

    def test_wrong_method_is_405(self, service_client):
        status, body = service_client.request("GET", "/score")
        assert status == 405
        assert "POST" in _error(body)["detail"]

    def test_unknown_run_id_is_404(self, service_client):
        status, body = service_client.request("GET", "/runs/definitely-not")
        assert status == 404
        assert "definitely-not" in _error(body)["detail"]

    def test_chunked_transfer_is_501(self, service_server):
        with socket.create_connection(
            (service_server.host, service_server.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /score HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"\r\n"
            )
            head = sock.recv(65536).decode("latin-1")
        assert head.startswith("HTTP/1.1 501 ")
        assert "chunked" in head

    def test_torn_request_head_is_400(self, service_server):
        with socket.create_connection(
            (service_server.host, service_server.port), timeout=10
        ) as sock:
            sock.sendall(b"POST /score HTTP/1.1\r\nContent-")
            sock.shutdown(socket.SHUT_WR)
            head = sock.recv(65536).decode("latin-1")
        assert head.startswith("HTTP/1.1 400 ")

    def test_unwritable_ledger_never_fails_a_request(self, tmp_path):
        # Telemetry is best effort: a ledger path that is a directory
        # loses the record (logged as service.ledger_error), not the
        # response.
        runtime = ServiceRuntime(ledger_path=str(tmp_path))
        with ServiceThread(runtime=runtime) as server:
            status, payload = server.client().score(
                {"measurements": {"A": {"x": 2.0}}, "partition": [["x"]]}
            )
        assert status == 200, payload

    def test_rejections_are_ledger_visible(self, service_server):
        client = service_server.client()
        client.post_json("/score", {"bogus": True})
        records = service_server.runtime.ledger.records()
        assert [r["command"] for r in records] == ["service:score"]
        assert records[0]["exit_code"] == 1
        assert records[0]["error"] == "request rejected by validation"


class TestSchemaValidation:
    """The validator layer directly — faster to enumerate edge cases."""

    @pytest.mark.parametrize(
        "mutation,field",
        [
            ({"measurements": {}}, "measurements"),
            ({"measurements": {"A": {}}}, "measurements"),
            ({"measurements": {"A": {"x": 0.0}}}, "measurements"),
            ({"measurements": {"A": {"x": -1.0}}}, "measurements"),
            ({"measurements": {"A": {"x": True}}}, "measurements"),
            ({"measurements": {"A": {"": 1.0}}}, "measurements"),
            ({"partition": []}, "partition"),
            ({"partition": [[]]}, "partition"),
            ({"partition": [["x"], [1]]}, "partition"),
            ({"mean": "quadratic"}, "mean"),
        ],
    )
    def test_score_rejections(self, mutation, field):
        with pytest.raises(ValidationError) as excinfo:
            validate_score_request(dict(VALID_SCORE, **mutation))
        assert excinfo.value.field == field

    @pytest.mark.parametrize(
        "body,field",
        [
            ({"characterization": "flops"}, "characterization"),
            ({"machine": "C"}, "machine"),
            ({"characterization": "methods", "machine": "A"}, "machine"),
            ({"seed": "eleven"}, "seed"),
            ({"seed": True}, "seed"),
            ({"linkage": ""}, "linkage"),
            ({"som_mode": "online"}, "som_mode"),
            ({"shards": 0}, "shards"),  # not an accepted field
            ({"shards": 2}, "shards"),
            ({"cluster_counts": []}, "cluster_counts"),
            ({"cluster_counts": [2, 0]}, "cluster_counts"),
            ({"wait": "yes"}, "wait"),
            ({"som_mode": "batch", "shards": 2}, "shards"),
        ],
    )
    def test_analyze_rejections(self, body, field):
        with pytest.raises(ValidationError) as excinfo:
            validate_analyze_request(body)
        assert excinfo.value.field == field

    def test_analyze_defaults_round_trip(self):
        request = validate_analyze_request({})
        canonical = request.canonical()
        assert canonical["characterization"] == "sar"
        assert canonical["machine"] == "A"
        assert canonical["seed"] == 11
        assert canonical["cluster_counts"] == list(range(2, 9))
        assert "wait" not in canonical  # sync and async must coalesce

    def test_equivalent_spellings_share_a_canonical_form(self):
        sparse = validate_analyze_request({})
        explicit = validate_analyze_request(
            {
                "characterization": "sar",
                "machine": "A",
                "seed": 11,
                "linkage": "complete",
                "som_mode": "sequential",
                "cluster_counts": [8, 2, 3, 4, 5, 6, 7],
                "wait": False,
            }
        )
        assert sparse.canonical() == explicit.canonical()
