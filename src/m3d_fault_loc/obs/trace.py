"""Lightweight span tracer: per-stage wall times for every request.

A *trace* is one request's journey through the pipeline; a *span* is one
named stage inside it (``contract_gate``, ``cache_lookup``, ``queue_wait``,
``batch_infer``, …). The service opens a trace per ``localize()`` call;
code on the request's own thread records spans with the :meth:`Tracer.span`
context manager (the trace id comes from the ambient context), and the
worker — which acts on many requests from one thread — records with
:meth:`Tracer.record`, passing each victim's trace id explicitly.

Completed traces land in a bounded ring buffer (served by
``GET /debug/traces``) and, with ``--trace-log``, are appended as JSONL
through a :class:`~m3d_fault_loc.obs.telemetry.TelemetryWriter`. Slow
requests are found in that log: ``m3d-obs trace --top N`` lists the
slowest, ``m3d-obs stitch --slow-ms N`` filters cross-process waterfalls.

The no-op fast path matters: with no ambient trace id, :meth:`Tracer.span`
returns the shared :data:`~m3d_fault_loc.obs.context.NULL_CONTEXT` — well
under 5 µs per span, asserted by a micro-benchmark in
``tests/test_obs_trace.py`` — so spans can stay in the hot path
unconditionally.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import nullcontext
from types import TracebackType
from typing import Any

from m3d_fault_loc.obs.context import NULL_CONTEXT, current_trace_id, new_trace_id
from m3d_fault_loc.obs.telemetry import TelemetryWriter


class _ActiveTrace:
    """Mutable per-request accumulator; finished into a plain JSON dict."""

    __slots__ = ("trace_id", "name", "meta", "started_at", "started_mono", "spans", "lock")

    def __init__(self, trace_id: str, name: str, meta: dict[str, Any]):
        self.trace_id = trace_id
        self.name = name
        self.meta = meta
        self.started_at = time.time()
        self.started_mono = time.perf_counter()
        self.spans: list[dict[str, Any]] = []
        self.lock = threading.Lock()


class _SpanContext:
    """Times one stage and records it into the owning tracer on exit."""

    __slots__ = ("_tracer", "_trace_id", "_stage", "_parent", "_meta", "_t0")

    def __init__(
        self,
        tracer: Tracer,
        trace_id: str,
        stage: str,
        parent: str | None,
        meta: dict[str, Any],
    ):
        self._tracer = tracer
        self._trace_id = trace_id
        self._stage = stage
        self._parent = parent
        self._meta = meta

    def __enter__(self) -> _SpanContext:
        self._t0 = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self._meta = {**self._meta, "error": exc_type.__name__}
        self._tracer.record(
            self._trace_id, self._stage, duration, parent=self._parent, **self._meta
        )
        return False


class _TraceContext:
    """Opens a trace on entry, finishes it (status from the outcome) on exit."""

    __slots__ = ("_tracer", "trace_id", "_name", "_meta")

    def __init__(self, tracer: Tracer, trace_id: str, name: str, meta: dict[str, Any]):
        self._tracer = tracer
        self.trace_id = trace_id
        self._name = name
        self._meta = meta

    def __enter__(self) -> _TraceContext:
        self._tracer._begin(self.trace_id, self._name, self._meta)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        status = "ok" if exc_type is None else exc_type.__name__
        self._tracer._finish(self.trace_id, status)
        return False


class Tracer:
    """Thread-safe trace/span recorder with a bounded completed-trace ring."""

    def __init__(
        self,
        capacity: int = 256,
        sink: TelemetryWriter | None = None,
        tags: dict[str, Any] | None = None,
    ):
        if capacity < 1:
            raise ValueError("tracer ring capacity must be >= 1")
        #: Where finished traces are appended, one JSON line each (``--trace-log``).
        self.sink = sink
        #: Process-identity tags stamped on every finished trace (e.g.
        #: ``{"process": "router"}`` / ``{"process": "replica", "addr": ...}``)
        #: so cross-process stitching can tell hops apart without relying on
        #: which file a record came from. Mutable until serving starts.
        self.tags: dict[str, Any] = dict(tags or {})
        self._lock = threading.Lock()
        self._active: dict[str, _ActiveTrace] = {}
        self._completed: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._dropped_spans = 0

    # -- trace lifecycle ---------------------------------------------------

    def trace(self, name: str, trace_id: str | None = None, **meta: Any) -> _TraceContext:
        """Context manager spanning one request (``trace_id`` or the ambient
        one, else a fresh id)."""
        tid = trace_id or current_trace_id() or new_trace_id()
        return _TraceContext(self, tid, name, meta)

    def _begin(self, trace_id: str, name: str, meta: dict[str, Any]) -> None:
        active = _ActiveTrace(trace_id, name, meta)
        with self._lock:
            self._active[trace_id] = active

    def _finish(self, trace_id: str, status: str) -> dict[str, Any] | None:
        with self._lock:
            active = self._active.pop(trace_id, None)
        if active is None:
            return None
        duration = time.perf_counter() - active.started_mono
        with active.lock:
            spans = list(active.spans)
            meta = dict(active.meta)
        finished = {
            "trace_id": trace_id,
            "name": active.name,
            "status": status,
            "started_at": round(active.started_at, 6),
            "duration_ms": round(duration * 1e3, 4),
            "meta": meta,
            "spans": spans,
        }
        if self.tags:
            finished["tags"] = dict(self.tags)
        with self._lock:
            self._completed.append(finished)
        if self.sink is not None:
            try:
                self.sink.write(finished)
            except OSError:  # a full disk must never fail the request
                pass
        return finished

    # -- span recording ----------------------------------------------------

    def span(
        self,
        stage: str,
        trace_id: str | None = None,
        parent: str | None = None,
        **meta: Any,
    ) -> _SpanContext | nullcontext[None]:
        """Time one stage of the ambient (or explicit) trace; a no-op
        without either."""
        tid = trace_id or current_trace_id()
        if tid is None:
            return NULL_CONTEXT
        return _SpanContext(self, tid, stage, parent, meta)

    def record(
        self,
        trace_id: str,
        stage: str,
        duration_s: float,
        parent: str | None = None,
        **meta: Any,
    ) -> None:
        """Record an already-measured stage (worker-side: queue_wait, infer).

        The span's start offset is derived as *now − duration*, so records
        made right after the measured section land in the right place on
        the trace timeline. Records for unknown/finished traces are dropped
        (counted, never raised): the watchdog may fail a request before its
        worker-side spans arrive.
        """
        with self._lock:
            active = self._active.get(trace_id)
        if active is None:
            with self._lock:
                self._dropped_spans += 1
            return
        now = time.perf_counter()
        span: dict[str, Any] = {
            "stage": stage,
            "offset_ms": round(max(0.0, now - duration_s - active.started_mono) * 1e3, 4),
            "duration_ms": round(duration_s * 1e3, 4),
        }
        if parent is not None:
            span["parent"] = parent
        if meta:
            span["meta"] = meta
        with active.lock:
            active.spans.append(span)

    def annotate(self, trace_id: str, **fields: Any) -> None:
        """Merge fields into an active trace's meta (late-arriving facts).

        Lets code that only learns an outcome mid-flight — which replica
        finally served a routed request — stamp it on the trace without
        owning the trace lifecycle. Annotations for unknown/finished traces
        are dropped silently, same contract as :meth:`record`.
        """
        if not fields:
            return
        with self._lock:
            active = self._active.get(trace_id)
        if active is None:
            return
        with active.lock:
            active.meta.update(fields)

    # -- readers -----------------------------------------------------------

    def recent(self, n: int = 20) -> list[dict[str, Any]]:
        """The ``n`` most recent completed traces, newest first."""
        with self._lock:
            items = list(self._completed)
        return list(reversed(items))[: max(0, n)]

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "active": len(self._active),
                "completed": len(self._completed),
                "dropped_spans": self._dropped_spans,
            }

