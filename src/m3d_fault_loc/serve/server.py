"""Stdlib JSON API over :class:`LocalizationService`.

Endpoints:

- ``POST /localize`` — body ``{"graph": <CircuitGraph JSON dict>,
  "top_k": 5, "scenario": "single_delay", "deadline_ms": 2000}``
  (``scenario`` optional, default ``single_delay``; ``deadline_ms``
  optional, also accepted as an ``X-M3D-Deadline-Ms`` header); ``200`` with
  the ranked localization, ``400`` on malformed payloads, ``413`` when the
  body exceeds the configured size limit, ``422`` with the m3dlint findings
  when the scenario's contract gate rejects the graph **or** with the known
  scenario list when ``scenario`` is unregistered, ``429``
  (+ ``Retry-After``) when the
  admission queue sheds the request, ``503`` while the circuit breaker is
  open, the worker just crashed, or the service is draining, and ``504``
  when the request's deadline elapses.
- ``GET /healthz`` — the ``ok``/``degraded``/``unhealthy``/``draining``
  state machine with worker, breaker, and queue detail (HTTP 200 while
  ``ok``/``degraded``, 503 otherwise).
- ``GET /metrics`` — Prometheus text by default, JSON with ``?format=json``.
- ``GET /model`` — active model manifest + cache statistics.
- ``GET /debug/traces`` — the N most recent completed request traces (and
  the slow-request ring) from the service tracer, for latency triage
  without log archaeology.

Trace ids, the body cap and response framing come from
:class:`m3d_fault_loc.serve.http.JSONHandler`: every outcome (200/4xx/5xx)
carries the request's ``X-M3D-Trace-Id`` header, and JSON error bodies echo
it, so a client-observed 504/429/503 maps directly to the server-side trace.

Built on ``ThreadingHTTPServer`` so each connection blocks on its own future
while the service's one worker scores their graphs in turn — concurrency
without any dependency beyond the standard library.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any
from urllib.parse import parse_qs, urlparse

from m3d_fault_loc.data.dataset import GraphContractError
from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.obs.logging import get_logger
from m3d_fault_loc.scenarios import UnknownScenarioError, scenario_names
from m3d_fault_loc.serve.http import (
    DEFAULT_MAX_BODY_BYTES,
    TRACE_HEADER,
    BadRequest,
    ErrorResponse,
    JSONHandler,
    ThreadedHTTPServer,
)
from m3d_fault_loc.serve.resilience import (
    CircuitOpenError,
    DeadlineExceededError,
    LoadSheddedError,
    ServiceDrainingError,
    WorkerCrashedError,
)
from m3d_fault_loc.serve.service import LocalizationService

log = get_logger(__name__)

__all__ = ["DEFAULT_MAX_BODY_BYTES", "TRACE_HEADER", "LocalizationHTTPServer", "create_server"]

#: Default (and maximum) number of traces returned by ``/debug/traces``.
DEFAULT_DEBUG_TRACES = 20
MAX_DEBUG_TRACES = 256

DEFAULT_TOP_K = 5

#: Longest deadline a worker thread can wait on (``threading.TIMEOUT_MAX``).
MAX_DEADLINE_MS = threading.TIMEOUT_MAX * 1e3


class LocalizationHTTPServer(ThreadedHTTPServer):
    """Threaded HTTP server that owns a running :class:`LocalizationService`."""

    def __init__(
        self,
        address: tuple[str, int],
        service: LocalizationService,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        if max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1, got {max_body_bytes}")
        super().__init__(address, _Handler)
        self.service = service
        self.max_body_bytes = max_body_bytes


class _Handler(JSONHandler):
    server_version = "m3d-serve/0.2"
    server: LocalizationHTTPServer

    def route(self, method: str) -> None:
        if method == "GET":
            self._handle_get()
        else:
            self._handle_post()

    def _deadline_s(self, payload: dict[str, Any]) -> float | None:
        """Per-request deadline: ``deadline_ms`` in the body wins over the
        ``X-M3D-Deadline-Ms`` header; absent means the service default.
        Booleans, NaN, infinities and values past ``MAX_DEADLINE_MS`` are
        rejected: each would otherwise pass ``float()`` and then unbound the
        request, put a bare ``NaN`` in the 504 body, or overflow the wait."""
        raw = payload.get("deadline_ms", self.headers.get("X-M3D-Deadline-Ms"))
        if raw is None:
            return None
        try:
            deadline_ms = math.nan if isinstance(raw, bool) else float(raw)
        except (TypeError, ValueError):
            deadline_ms = math.nan
        if not 0 < deadline_ms <= MAX_DEADLINE_MS:  # false for NaN too
            raise BadRequest(
                f'"deadline_ms" must be a number in (0, {MAX_DEADLINE_MS:.0f}], got {raw!r}'
            )
        return deadline_ms / 1e3

    # -- routes ------------------------------------------------------------

    def _handle_get(self) -> None:
        url = urlparse(self.path)
        if url.path == "/healthz":
            self.send_health(self.server.service.health_snapshot())
        elif url.path == "/metrics":
            fmt = parse_qs(url.query).get("format", ["prometheus"])[0]
            if fmt == "json":
                self.send_json(200, self.server.service.metrics.to_json_dict())
            else:
                self.send_text(
                    200,
                    self.server.service.metrics.render_prometheus(),
                    "text/plain; version=0.0.4",
                )
        elif url.path == "/model":
            self.send_json(
                200,
                {
                    "model": self.server.service.describe_model(),
                    "cache": self.server.service.cache_stats(),
                },
            )
        elif url.path == "/debug/traces":
            try:
                n = int(parse_qs(url.query).get("n", [str(DEFAULT_DEBUG_TRACES)])[0])
            except ValueError:
                raise BadRequest('"n" must be an integer') from None
            n = max(1, min(n, MAX_DEBUG_TRACES))
            tracer = self.server.service.tracer
            self.send_json(
                200,
                {
                    "traces": tracer.recent(n),
                    "slow": tracer.slow(n),
                    "stats": tracer.stats(),
                },
            )
        else:
            self.send_json(404, {"error": "not_found", "path": url.path})

    def _handle_post(self) -> None:
        if urlparse(self.path).path != "/localize":
            self.send_json(404, {"error": "not_found", "path": self.path})
            return
        payload = self._parse_json_body(self.read_body(self.server.max_body_bytes))
        graph, top_k, scenario = self._parse_localize_payload(payload)
        timeout_s = self._deadline_s(payload)
        try:
            result = self.server.service.localize(
                graph, top_k=top_k, timeout_s=timeout_s, scenario=scenario
            )
        except UnknownScenarioError as exc:
            raise ErrorResponse(
                422, "unknown_scenario", scenario=str(exc.name), known=exc.known
            ) from exc
        except GraphContractError as exc:
            raise ErrorResponse(
                422,
                "contract_violation",
                graph=exc.graph_name,
                violations=[v.to_json_dict() for v in exc.violations],
            ) from exc
        except LoadSheddedError as exc:
            raise ErrorResponse(
                429,
                "load_shed",
                str(exc),
                headers={"Retry-After": f"{max(1, round(exc.retry_after_s))}"},
                retry_after_s=exc.retry_after_s,
            ) from exc
        except CircuitOpenError as exc:
            raise ErrorResponse(
                503,
                "circuit_open",
                str(exc),
                headers={"Retry-After": f"{max(1, round(exc.retry_after_s))}"},
                retry_after_s=exc.retry_after_s,
            ) from exc
        except (DeadlineExceededError, FutureTimeoutError) as exc:
            deadline_s = getattr(exc, "deadline_s", None)
            raise ErrorResponse(
                504,
                "deadline_exceeded",
                str(exc) or "localization timed out",
                deadline_ms=None if deadline_s is None else round(deadline_s * 1e3, 3),
            ) from exc
        except WorkerCrashedError as exc:
            raise ErrorResponse(503, "worker_crashed", str(exc)) from exc
        except Exception as exc:
            if isinstance(exc, ServiceDrainingError) or (
                isinstance(exc, RuntimeError) and "closed" in str(exc)
            ):
                raise ErrorResponse(503, "draining", str(exc)) from exc
            log.exception("localization_failed")
            raise ErrorResponse(500, "internal", "localization failed") from exc
        self.send_json(200, result.to_json_dict())

    @staticmethod
    def _parse_json_body(body: bytes) -> dict[str, Any]:
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the decoder's recursion limit.
            raise BadRequest(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "graph" not in payload:
            raise BadRequest('payload must be an object with a "graph" field')
        return payload

    @staticmethod
    def _parse_localize_payload(payload: dict[str, Any]) -> tuple[CircuitGraph, int, str | None]:
        top_k = payload.get("top_k", DEFAULT_TOP_K)
        if isinstance(top_k, bool) or not isinstance(top_k, int) or top_k < 1:
            raise BadRequest(f'"top_k" must be a positive integer, got {top_k!r}')
        scenario = payload.get("scenario")
        if scenario is not None and (not isinstance(scenario, str) or not scenario):
            raise BadRequest(
                f'"scenario" must be a non-empty string, got {scenario!r} '
                f"(known: {', '.join(scenario_names())})"
            )
        try:
            graph = CircuitGraph.from_json_dict(payload["graph"])
        except Exception as exc:
            raise BadRequest(f"unreadable graph payload: {type(exc).__name__}: {exc}") from exc
        return graph, top_k, scenario


def create_server(
    service: LocalizationService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> LocalizationHTTPServer:
    """Bind the API (``port=0`` picks an ephemeral port) and start the
    service worker; call ``serve_forever()`` on the result to run."""
    server = LocalizationHTTPServer((host, port), service, max_body_bytes=max_body_bytes)
    service.start()
    return server
