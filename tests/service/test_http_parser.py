"""The request parser against anything a socket can send.

``read_request`` has three outcomes: a parsed request, ``None`` on a
clean close, or :class:`HttpError`, which the daemon answers with one
structured 4xx and one ``endpoint="parse"`` count.  Any other exception
escapes the connection handler and closes the socket with no answer.
The properties feed the parser arbitrary bytes and mutations of valid
requests; the named cases pin the framing rules it once got wrong.
"""

from __future__ import annotations

import asyncio
import re
import socket

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.service.http import HttpError, HttpRequest, read_request

# (method, target, version, headers, body) of requests the daemon serves.
VALID_PARTS = (
    ("GET", "/healthz", "HTTP/1.1", [("Host", "x")], b""),
    ("GET", "/runs/abc?after=3&follow=1", "HTTP/1.1", [("Host", "x")], b""),
    (
        "POST",
        "/score",
        "HTTP/1.1",
        [("Host", "x"), ("Content-Length", "2")],
        b"{}",
    ),
    (
        "POST",
        "/analyze",
        "HTTP/1.0",
        [("Content-Length", "16"), ("Connection", "close")],
        b'{"machine": "A"}',
    ),
)

# Fragments that probe the parser's framing and target handling.
NASTY = (
    b"[", b"]", b"//", b"http://[", b"\x00", b"\r", b"\n", b"\r\n",
    b"\r\n\r\n", b":", b" ", b"+", b"-", b"_", b"0", b"9", b"\xb2",
    b"Content-Length: 1\r\n", b"Content-Length: 99999999\r\n",
    b"Transfer-Encoding: chunked\r\n", b"HTTP/1.1", b"%", b"?", b"#",
)


def _request_bytes(method, target, version, headers, body) -> bytes:
    head = b" ".join((method, target, version)) + b"\r\n"
    head += b"".join(name + b": " + value + b"\r\n" for name, value in headers)
    return head + b"\r\n" + body


VALID_REQUESTS = tuple(
    _request_bytes(
        method.encode(),
        target.encode(),
        version.encode(),
        [(name.encode(), value.encode()) for name, value in headers],
        body,
    )
    for method, target, version, headers, body in VALID_PARTS
)


def _parse(data: bytes, max_body: int = 1024) -> HttpRequest | None:
    async def run() -> HttpRequest | None:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader, max_body=max_body)

    return asyncio.run(run())


def _content_length_values(data: bytes) -> list[str]:
    head = data.split(b"\r\n\r\n", 1)[0].decode("latin-1")
    values = []
    for line in head.split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            values.append(value.strip(" \t"))
    return values


def _assert_parses_or_rejects(data: bytes) -> None:
    try:
        request = _parse(data)
    except HttpError as error:
        assert 400 <= error.status < 600
        return
    if request is None:
        return
    # Whatever is accepted is framed unambiguously.
    lengths = _content_length_values(data)
    assert len(lengths) <= 1
    assert all(re.fullmatch("[0-9]+", value) for value in lengths)
    header_block = data.split(b"\r\n\r\n", 1)[0].partition(b"\r\n")[2]
    assert b"\x00" not in header_block
    # Every field name is an RFC 9110 token: no whitespace, no fold.
    assert all(
        re.fullmatch(r"[!#$%&'*+\-.^_`|~0-9a-z]+", name) for name in request.headers
    )
    if lengths:
        assert len(request.body) == int(lengths[0])


def _splice(draw, data: bytes) -> bytes:
    """``data`` with a fragment inserted or a stretch cut, maybe."""
    at = draw(st.sampled_from((0, len(data))) | st.integers(0, len(data)))
    kind = draw(st.sampled_from(("keep", "insert", "cut")))
    if kind == "insert":
        piece = draw(st.sampled_from(NASTY) | st.binary(max_size=4))
        return data[:at] + piece + data[at:]
    if kind == "cut":
        return data[:at] + data[at + draw(st.integers(1, 6)) :]
    return data


@st.composite
def mutated_requests(draw) -> bytes:
    """A valid request with edits to its target, headers and bytes."""
    method, target, version, headers, body = draw(st.sampled_from(VALID_PARTS))
    headers = [(name.encode(), value.encode()) for name, value in headers]
    for _ in range(draw(st.integers(0, 2))):
        index = draw(st.integers(0, len(headers) - 1))
        name, value = headers[index]
        headers[index] = (name, _splice(draw, value))
    if draw(st.booleans()):  # a header line twice, the copy edited
        name, value = draw(st.sampled_from(headers))
        at = draw(st.integers(0, len(headers)))
        headers.insert(at, (name, _splice(draw, value)))
    data = _request_bytes(
        method.encode(),
        _splice(draw, target.encode()),
        version.encode(),
        headers,
        body,
    )
    for _ in range(draw(st.integers(0, 2))):
        data = _splice(draw, data)
    return data


@given(data=st.binary(max_size=300) | mutated_requests())
@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_any_bytes_parse_or_raise_http_error(data):
    _assert_parses_or_rejects(data)


@pytest.mark.parametrize("data", VALID_REQUESTS)
def test_valid_requests_parse(data):
    request = _parse(data)
    assert request is not None and request.path.startswith("/")


MALFORMED = {
    "unclosed IPv6 host": b"GET http://[ HTTP/1.1\r\n\r\n",
    "unclosed IPv6 authority": b"GET //[x HTTP/1.1\r\n\r\n",
    "underscore length": b"POST /score HTTP/1.1\r\nContent-Length: 1_0\r\n"
    b"\r\n{\"a\": 1.0}",
    "signed length": b"POST /score HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}",
    "conflicting lengths": b"POST /score HTTP/1.1\r\nContent-Length: 40\r\n"
    b"Content-Length: 2\r\n\r\n{}",
    "repeated length": b"POST /score HTTP/1.1\r\nContent-Length: 2\r\n"
    b"Content-Length: 2\r\n\r\n{}",
    "NUL in a header value": b"GET /healthz HTTP/1.1\r\nX-Note: a\x00b\r\n\r\n",
    "bare CR in a header value": b"GET /healthz HTTP/1.1\r\nX-Note: a\rb\r\n\r\n",
    "space before the colon": b"POST /score HTTP/1.1\r\nContent-Length : 2\r\n"
    b"\r\n{}",
    "obs-fold line": b"GET /healthz HTTP/1.1\r\nX-Note: a\r\n Host: x\r\n\r\n",
    "tab-folded line": b"GET /healthz HTTP/1.1\r\nX-Note: a\r\n\tHost: x\r\n\r\n",
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_request_is_http_400(data):
    with pytest.raises(HttpError) as error:
        _parse(data)
    assert error.value.status == 400


def _parse_counts(server) -> dict[str, float]:
    return {
        key: value
        for key, value in server.runtime.registry.as_dict().items()
        if key.startswith("service_requests_total{")
    }


def test_each_malformed_request_gets_one_4xx_and_one_parse_count(
    service_server,
):
    for sent, data in enumerate(MALFORMED.values(), start=1):
        with socket.create_connection(
            (service_server.host, service_server.port), timeout=10
        ) as sock:
            sock.sendall(data)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        statuses = re.findall(rb"HTTP/1\.1 (\d{3}) ", received)
        assert len(statuses) == 1, (data, received)
        assert statuses[0].startswith(b"4"), (data, received)
        assert b"Connection: close" in received
        counts = _parse_counts(service_server)
        assert set(counts) == {
            'service_requests_total{endpoint="parse",status="400"}'
        }, (data, counts)
        assert sum(counts.values()) == sent
