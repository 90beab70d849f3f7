"""One HTTP server and handler base for every server in the stack.

``m3d-serve``, ``m3d-route`` and the chaos :class:`StubReplica` subclass
:class:`ThreadedHTTPServer` and :class:`JSONHandler` and keep only their
routes. The handler base owns the rest:

- the trace-id context around each request (a well-formed inbound
  ``X-M3D-Trace-Id`` is honored, anything else replaced), so spans, log
  lines and the response all carry the same id;
- the access log;
- one bounded body reader that answers a malformed ``Content-Length`` with a
  structured 400 and an oversized one with a 413;
- JSON and text responses that carry ``X-M3D-Trace-Id``;
- ``Connection: close`` on any response that leaves the request body
  unread, so unread bytes are never parsed as the next request.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from m3d_fault_loc.obs.context import current_trace_id, new_trace_id, sanitize_trace_id
from m3d_fault_loc.obs.context import trace_context as _trace_context
from m3d_fault_loc.obs.logging import get_logger

log = get_logger(__name__)

#: Header carrying the request's trace id, inbound and on every response.
TRACE_HEADER = "X-M3D-Trace-Id"

#: Default cap on request bodies.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

_CONTENT_LENGTH_RE = re.compile(r"^[0-9]+$")


class ErrorResponse(Exception):
    """Raised by a route to answer a structured JSON error; the base adds
    the trace id to the body (``{"error", "detail"?, **fields, "trace_id"}``)."""

    def __init__(
        self,
        status: int,
        error: str,
        detail: str | None = None,
        headers: Mapping[str, str] | None = None,
        **fields: Any,
    ):
        super().__init__(detail or error)
        self.status = status
        self.headers = headers
        self.payload: dict[str, Any] = {"error": error}
        if detail is not None:
            self.payload["detail"] = detail
        self.payload.update(fields)


class BadRequest(ErrorResponse):
    """Client payload error (400); the message is safe to echo back."""

    def __init__(self, detail: str):
        super().__init__(400, "bad_request", detail)


class JSONHandler(BaseHTTPRequestHandler):
    """Base request handler: subclasses implement :meth:`route` only."""

    protocol_version = "HTTP/1.1"
    #: Structured-log event for access lines; ``None`` keeps the handler silent.
    access_event: str | None = "http_access"
    #: Whether the current request still has body bytes on the socket.
    _body_unread = False

    def route(self, method: str) -> None:
        raise NotImplementedError

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._serve("POST")

    def _serve(self, method: str) -> None:
        self._body_unread = (
            self.headers.get("Content-Length", "0").strip() not in ("", "0")
            or "Transfer-Encoding" in self.headers
        )
        trace_id = sanitize_trace_id(self.headers.get(TRACE_HEADER)) or new_trace_id()
        with _trace_context(trace_id):
            try:
                self.route(method)
            except ErrorResponse as exc:
                self.send_json(exc.status, {**exc.payload, "trace_id": trace_id}, exc.headers)

    def log_message(self, format: str, *args: Any) -> None:
        if self.access_event is not None:
            log.debug(self.access_event, client=self.address_string(), line=format % args)

    def read_body(self, limit: int = DEFAULT_MAX_BODY_BYTES, required: bool = True) -> bytes:
        """The request body, at most ``limit`` bytes.

        Raises :class:`BadRequest` for a ``Content-Length`` that is not a
        non-negative integer (or missing/zero when ``required``) and a 413
        :class:`ErrorResponse` past ``limit``; the body is then left unread
        and the response closes the connection.
        """
        raw = self.headers.get("Content-Length")
        if raw is not None and not _CONTENT_LENGTH_RE.match(raw.strip()):
            raise BadRequest(f"malformed Content-Length header: {raw!r}")
        length = int(raw or 0)
        if length == 0:
            if required:
                raise BadRequest("request body required (Content-Length missing or zero)")
            return b""
        if length > limit:
            raise ErrorResponse(
                413,
                "payload_too_large",
                f"request body of {length} bytes exceeds the {limit}-byte limit",
                limit_bytes=limit,
                got_bytes=length,
            )
        body = self.rfile.read(length)
        self._body_unread = False
        return body

    def send_json(
        self, status: int, payload: Mapping[str, Any], headers: Mapping[str, str] | None = None
    ) -> None:
        self.send_bytes(status, json.dumps(payload).encode(), headers)

    def send_health(self, health: Mapping[str, Any]) -> None:
        """A health snapshot: 200 while serving, possibly at reduced capacity
        (``ok``, ``degraded…``); 503 otherwise, so load balancers rotate
        traffic away."""
        status = str(health["status"])
        self.send_json(200 if status == "ok" or status.startswith("degraded") else 503, health)

    def send_text(self, status: int, text: str, content_type: str) -> None:
        self.send_bytes(status, text.encode(), {"Content-Type": content_type})

    def send_bytes(
        self, status: int, body: bytes, headers: Mapping[str, str] | None = None
    ) -> None:
        """One response (JSON unless ``headers`` names another ``Content-Type``)."""
        fields = {"Content-Type": "application/json", **(headers or {})}
        trace_id = current_trace_id()
        if trace_id is not None:
            fields.setdefault(TRACE_HEADER, trace_id)
        fields["Content-Length"] = str(len(body))
        if self._body_unread:
            fields["Connection"] = "close"
        self.send_response(status)
        for name, value in fields.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


class ThreadedHTTPServer(ThreadingHTTPServer):
    """A thread per connection; handler threads never block process exit."""

    daemon_threads = True

    @property
    def port(self) -> int:
        return int(self.server_address[1])
