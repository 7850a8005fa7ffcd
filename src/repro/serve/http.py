"""Minimal HTTP/1.1 on asyncio streams.

The service speaks plain HTTP so ``curl`` and any load generator work
against it, but the repo takes no new runtime dependencies: this module
hand-rolls the small, strict subset the advisor needs — JSON request
bodies, JSON responses, ``Content-Length`` framing, keep-alive. It is
deliberately not a general server: no chunked encoding, no pipelining
guarantees beyond serial request/response on one connection, and hard
limits on header and body sizes so a misbehaving client cannot balloon
memory.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple

#: Hard limits; exceeding either is a protocol error (400/413).
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024

#: The status lines we actually emit.
STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """Malformed HTTP from the client; carries the status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed request: method, path, headers, decoded JSON body."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """Decode the body as JSON (empty body reads as ``None``)."""
        if not self.body:
            return None
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(400, f"invalid JSON body: {exc}") from exc

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off the stream; ``None`` on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise ProtocolError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(413, "request head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(413, "request head too large")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    path = target.split("?", 1)[0] or "/"

    headers: dict[str, str] = {}
    lengths: set[int] = set()
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line: {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length":
            lengths.add(_content_length(value))
        headers[name] = value

    if "transfer-encoding" in headers:
        raise ProtocolError(400, "chunked transfer encoding not supported")
    if len(lengths) > 1:
        raise ProtocolError(400, "conflicting Content-Length headers")
    length = lengths.pop() if lengths else 0
    if length > MAX_BODY_BYTES:
        raise ProtocolError(413, f"body exceeds {MAX_BODY_BYTES} bytes")

    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(400, "truncated request body") from exc
    return Request(method=method.upper(), path=path, headers=headers, body=body)


def _content_length(raw: str) -> int:
    """One ``Content-Length`` value: ASCII digits only (no sign, no ``_``)."""
    if raw.isascii() and raw.isdigit():
        try:
            return int(raw)
        except ValueError:  # past int()'s digit limit
            pass
    raise ProtocolError(400, f"bad Content-Length: {raw!r}")


def _dumps(payload: Any) -> str:
    """Compact JSON with sorted keys: the one wire form of every body.

    ``sort_keys`` keeps the wire bytes deterministic for a given payload,
    which is what lets the differential tests compare served answers
    byte-for-byte against the offline engine path.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class Rendered(NamedTuple):
    """A JSON object rendered once, split around its top-level ``"meta"``.

    :meth:`splice` is :func:`render_response`'s body for the object with
    ``meta`` set, byte for byte, at the cost of one small ``json.dumps``:
    the keys sort around ``"meta"``, so ``head`` holds every key before
    it and ``"meta":``, and ``tail`` every key after it. The object's
    own ``meta``, if any, is left out, as setting ``meta`` replaces it.
    Top-level keys must be strings.
    """

    head: bytes
    tail: bytes

    @classmethod
    def of(cls, payload: Mapping[str, Any]) -> Rendered:
        before = _dumps({k: v for k, v in payload.items() if k < "meta"})
        after = _dumps({k: v for k, v in payload.items() if k > "meta"})
        head = before[:-1] + ("," if len(before) > 2 else "") + '"meta":'
        tail = ("," if len(after) > 2 else "") + after[1:]
        return cls(head.encode("utf-8"), tail.encode("utf-8"))

    def splice(self, meta: Any) -> bytes:
        return self.head + _dumps(meta).encode("utf-8") + self.tail


def render_response(
    status: int, payload: Any, *, keep_alive: bool = True
) -> bytes:
    """Serialize one JSON response with Content-Length framing.

    A ``bytes`` payload is an already rendered body (see
    :class:`Rendered`) and goes out as it is.
    """
    body = (
        payload
        if isinstance(payload, bytes)
        else _dumps(payload).encode("utf-8")
    )
    reason = STATUS_REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


#: Longest error message a body carries whole. Messages quote client
#: input (a bad value, an unknown name) and a body may be 1 MiB, so a
#: longer one keeps only its first and last ``MAX_ERROR_CHARS // 2``
#: characters: the start names the field, the end lists the choices.
MAX_ERROR_CHARS = 300


def error_payload(status: int, message: str) -> dict[str, Any]:
    """The uniform JSON error body, its message cut to
    :data:`MAX_ERROR_CHARS` characters plus a marker."""
    if len(message) > MAX_ERROR_CHARS:
        half = MAX_ERROR_CHARS // 2
        cut = len(message) - 2 * half
        message = f"{message[:half]} ...[{cut} characters cut]... {message[-half:]}"
    return {"error": {"status": status, "message": message}}
