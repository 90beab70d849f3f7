"""Request-scoped trace-context propagation.

One :mod:`contextvars` variable carries the current trace id from the HTTP
handler thread into everything it calls on that thread — the contract gate,
the cache lookup, the structured logger — without threading a ``trace_id``
parameter through every signature. Code that runs on *other* threads on a
request's behalf (the worker, the watchdog) cannot see the caller's
context; it tags spans and log lines with the trace id stored on the
queued request instead.

Trace ids are opaque lowercase hex strings. Inbound ids (from an
``X-M3D-Trace-Id`` request header) pass through :func:`sanitize_trace_id`
so a hostile client cannot inject log/JSON payloads through the id.

:data:`NULL_CONTEXT` is the one do-nothing context manager that the
tracer's and the phase profiler's no-op paths hand out.
"""

from __future__ import annotations

import contextvars
import re
import uuid
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext

#: Shared no-op context manager: a span with no trace, a phase with no profiler.
NULL_CONTEXT: nullcontext[None] = nullcontext()

_TRACE_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "m3d_trace_id", default=None
)

#: Accepted inbound trace ids: 8-64 URL-safe characters, nothing else.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9_-]{8,64}$")


def new_trace_id() -> str:
    """A fresh 32-char hex trace id."""
    return uuid.uuid4().hex


def current_trace_id() -> str | None:
    """The trace id bound to this thread/context, if any."""
    return _TRACE_ID.get()


def sanitize_trace_id(raw: str | None) -> str | None:
    """Return ``raw`` if it is a well-formed trace id, else ``None``."""
    if raw is None or not _TRACE_ID_RE.match(raw):
        return None
    return raw


@contextmanager
def trace_context(trace_id: str | None = None) -> Iterator[str]:
    """Bind ``trace_id`` (or a fresh one) for the duration of the block."""
    tid = trace_id or new_trace_id()
    token = _TRACE_ID.set(tid)
    try:
        yield tid
    finally:
        _TRACE_ID.reset(token)
