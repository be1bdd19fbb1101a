"""Minimal HTTP/1.1 over asyncio streams — the service's only transport.

The daemon is stdlib-only by design, so instead of a web framework
this module implements the small slice of HTTP the scoring service
needs: request-line + header parsing with hard size limits,
``Content-Length`` bodies (chunked transfer is rejected with 501),
keep-alive connections, and deterministic JSON responses (sorted
keys, stable separators — the byte-identity the coalescing layer and
the golden service tests rely on).

Anything malformed raises :class:`HttpError`, which the app layer
turns into a structured JSON error body::

    {"error": {"detail": "...", "status": 400}}
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from typing import Any, Mapping
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "MAX_HEADER_BYTES",
    "DEFAULT_MAX_BODY_BYTES",
    "HttpError",
    "HttpRequest",
    "read_request",
    "json_body",
    "response_bytes",
    "json_response",
    "error_response",
    "sse_head_bytes",
    "sse_frame",
]

MAX_HEADER_BYTES = 16 * 1024

_FORBIDDEN_IN_HEADER = re.compile("[\x00\r\n]")

# RFC 9110 5.1 field-name = token (5.6.2).  Whitespace is not a tchar,
# so this also refuses "Content-Length : 2" (RFC 9112 5.1) and an
# obs-fold continuation line that starts with SP or HTAB (5.2).
_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

# Request bodies above this are refused with 413 before buffering; a
# full Table-III-shaped /score body is ~2KB, so 2MiB is generous
# headroom for big suites without letting one request balloon memory.
DEFAULT_MAX_BODY_BYTES = 2 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A protocol-level failure with the status it maps to."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Whether the connection survives this exchange (HTTP/1.1)."""
        return self.headers.get("connection", "").lower() != "close"


async def read_request(
    reader, *, max_body: int = DEFAULT_MAX_BODY_BYTES
) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` for malformed request lines, oversized
    headers or bodies, unsupported transfer encodings, and truncated
    bodies.
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial.strip():
            return None  # clean close between requests
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request head exceeds the stream limit") from None
    if len(raw) > MAX_HEADER_BYTES:
        raise HttpError(400, f"request head exceeds {MAX_HEADER_BYTES} bytes")

    try:
        head = raw.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes all bytes
        raise HttpError(400, "undecodable request head") from None
    request_line, _, header_block = head.partition("\r\n")
    parts = request_line.split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol version {version!r}")

    headers: dict[str, str] = {}
    for line in header_block.split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not _FIELD_NAME.fullmatch(name):
            raise HttpError(400, f"malformed header line {line!r}")
        # RFC 9110 5.5: a field value holding NUL, CR or LF is invalid.
        if _FORBIDDEN_IN_HEADER.search(line):
            raise HttpError(400, f"control character in header line {line!r}")
        name = name.lower()
        # RFC 9112 6.3: more than one Content-Length is unrecoverable
        # framing (a smuggling vector behind a proxy), so it is refused.
        if name == "content-length" and name in headers:
            raise HttpError(400, "more than one Content-Length header")
        headers[name] = value.strip(" \t")

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked transfer encoding is not supported")

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        # 1*DIGIT: `int` alone would also take "+3" and "1_0".
        if not (length_header.isascii() and length_header.isdigit()):
            raise HttpError(400, f"malformed Content-Length {length_header!r}")
        try:
            length = int(length_header)
        except ValueError:  # past the interpreter's digit limit
            raise HttpError(
                400, f"malformed Content-Length {length_header!r}"
            ) from None
        if length > max_body:
            raise HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{max_body}-byte limit",
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "request body shorter than Content-Length")

    try:
        split = urlsplit(target)
    except ValueError:  # e.g. an unclosed IPv6 bracket, "http://["
        raise HttpError(400, f"malformed request target {target!r}") from None
    return HttpRequest(
        method=method.upper(),
        path=split.path or "/",
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


def json_body(request: HttpRequest) -> Any:
    """The request body parsed as JSON (400 on anything unparseable)."""
    if not request.body:
        raise HttpError(400, "request body is empty; expected a JSON object")
    try:
        return json.loads(request.body.decode("utf-8"))
    except UnicodeDecodeError:
        raise HttpError(400, "request body is not valid UTF-8") from None
    except json.JSONDecodeError as error:
        raise HttpError(400, f"request body is not valid JSON: {error}") from None


def response_bytes(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Mapping[str, str] | None = None,
) -> bytes:
    """A full HTTP/1.1 response as one buffer (head + body)."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def sse_head_bytes(extra_headers: Mapping[str, str] | None = None) -> bytes:
    """The response head opening a Server-Sent Events stream.

    SSE bodies have no ``Content-Length`` — frames are written as the
    run produces events — so the connection is single-use
    (``Connection: close``) and the client reads until EOF.
    """
    lines = [
        "HTTP/1.1 200 OK",
        "Content-Type: text/event-stream",
        "Cache-Control: no-store",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def sse_frame(seq: int, name: str, data: Mapping[str, Any]) -> bytes:
    """One SSE frame: ``id``/``event`` lines plus a deterministic JSON
    ``data`` payload (sorted keys), so replays after ``Last-Event-ID``
    resume are byte-identical to the original delivery."""
    payload = json.dumps(
        data, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return f"id: {seq}\nevent: {name}\ndata: {payload}\n\n".encode("utf-8")


def json_response(status: int, payload: Any) -> tuple[int, bytes]:
    """Status + deterministic JSON body (sorted keys, stable separators)."""
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8") + b"\n"
    return status, body


def error_response(status: int, detail: str, **extra: Any) -> tuple[int, bytes]:
    """The service's uniform structured error body."""
    error: dict[str, Any] = {"status": status, "detail": detail}
    error.update({k: v for k, v in extra.items() if v is not None})
    return json_response(status, {"error": error})
