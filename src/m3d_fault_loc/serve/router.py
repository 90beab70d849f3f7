"""Replica tier: consistent-hash router over multiple ``m3d-serve`` processes.

One process can only scale so far; the replica tier fronts N independent
``m3d-serve`` replicas with a stdlib-only HTTP router (``m3d-route`` CLI):

- **Consistent-hash routing.** Requests are placed on a vnode hash ring
  keyed by the request body's sha256 (path for bodyless requests), so a
  repeat ``/localize`` payload lands on the same replica — its result LRU
  and aggregation-operator cache stay hot — and adding or removing a
  replica remaps only ~1/N of the keyspace. The ring's walk order doubles
  as the **failover preference list**.
- **Health-aware ejection.** Each replica sits behind the service's
  :class:`~m3d_fault_loc.serve.resilience.CircuitBreaker`:
  ``up`` → (``eject_after`` consecutive failures) → ``ejected`` for a
  cooldown → ``half-open`` (exactly one trial request or probe) → ``up``
  on success, re-ejected on failure. A background prober GETs each
  replica's ``/healthz`` (always with a timeout — see m3dlint M3D210) so
  recovered replicas are readmitted without waiting for live traffic to
  gamble on them.
- **Bounded retry-with-backoff failover.** Connect-phase errors are always
  retried on the next replica in preference order (nothing was sent);
  post-send errors and retryable 5xx (500/502/503) fail over **only for
  idempotent requests** — ``GET``/``HEAD`` and ``POST /localize``, which is
  a pure function of its payload. A request past its deadline
  (``X-M3D-Deadline-Ms``) is *never* retried, and a replica's 504 is
  returned as-is: the deadline that expired there has expired here too.
  Retries are capped (``max_attempts``) and spaced by jittered exponential
  backoff so a sick pool is not hammered in lockstep.
- **Graceful drain cascade.** On SIGTERM the router stops admission first
  (new requests get a structured 503 ``draining``), finishes its in-flight
  proxied requests within a deadline, and exits 0 — the front half of the
  rolling-restart contract; each replica then drains the same way on its
  own SIGTERM.

The router never parses proxied bodies and holds no model state: it can be
restarted at will, and everything it knows shows up on
``GET /router/healthz`` and ``GET /router/metrics``. Every outbound
connection carries an explicit timeout — a dead replica must cost a bounded
attempt, never a hung router thread.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import urlparse

from m3d_fault_loc.obs.context import current_trace_id, new_trace_id
from m3d_fault_loc.obs.fleet import FleetScraper, fetch_json, fleet_status
from m3d_fault_loc.obs.logging import get_logger
from m3d_fault_loc.obs.stitch import PROBE_TRACE_PREFIX
from m3d_fault_loc.obs.trace import NULL_TRACER, Tracer
from m3d_fault_loc.serve.http import TRACE_HEADER, JSONHandler, ThreadedHTTPServer
from m3d_fault_loc.serve.metrics import MetricsRegistry
from m3d_fault_loc.serve.resilience import (
    CircuitBreaker,
    Deadline,
    ExponentialBackoff,
    jittered,
)

log = get_logger(__name__)

#: Replica state machine values.
REPLICA_UP = "up"
REPLICA_EJECTED = "ejected"
REPLICA_HALF_OPEN = "half-open"

#: Response header naming the replica that produced the response.
REPLICA_HEADER = "X-M3D-Replica"
#: Response header counting the attempts the router spent on the request.
ATTEMPTS_HEADER = "X-M3D-Attempts"
#: Request header carrying the client deadline budget in milliseconds.
DEADLINE_HEADER = "X-M3D-Deadline-Ms"

#: Replica 5xx statuses worth failing over (another replica may serve the
#: key). 504 is deliberately absent: the request's own deadline expired.
_FAILOVER_STATUSES = frozenset({500, 502, 503})

#: POST paths that are pure functions of their payload and therefore safe
#: to replay on a sibling after an ambiguous post-send failure.
_IDEMPOTENT_POSTS = frozenset({"/localize"})

#: Request headers the router forwards downstream verbatim.
_FORWARD_REQUEST_HEADERS = ("Content-Type", TRACE_HEADER)
#: Replica response headers the router relays back to the client.
_RELAY_RESPONSE_HEADERS = ("Content-Type", TRACE_HEADER, "Retry-After")


def parse_replica_spec(spec: str) -> tuple[str, int]:
    """``host:port`` → ``(host, port)``; raises ``ValueError`` otherwise."""
    host, sep, port_s = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"replica spec must be host:port, got {spec!r}")
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(f"replica spec must be host:port, got {spec!r}") from None
    if not 0 < port < 65536:
        raise ValueError(f"replica port out of range in {spec!r}")
    return host, port


#: Public replica state for each state of its ejection breaker.
_REPLICA_STATE = {
    CircuitBreaker.CLOSED: REPLICA_UP,
    CircuitBreaker.OPEN: REPLICA_EJECTED,
    CircuitBreaker.HALF_OPEN: REPLICA_HALF_OPEN,
}


class Replica:
    """One backend's identity and counters; ejection is a :class:`CircuitBreaker`.

    ``eject_after`` consecutive failures open the breaker (``ejected``);
    after ``cooldown_s`` it goes ``half-open`` and admits exactly one trial
    — a live request or a probe, whichever claims it first — whose outcome
    closes it (``up``) or re-ejects it with a fresh cooldown.
    """

    def __init__(self, host: str, port: int, eject_after: int = 3, cooldown_s: float = 2.0):
        self.host = host
        self.port = port
        self.key = f"{host}:{port}"
        self.cooldown_s = cooldown_s
        self._breaker = CircuitBreaker(
            failure_threshold=eject_after,
            reset_timeout_s=cooldown_s,
            on_transition=self._log_transition,
        )
        self._lock = threading.Lock()
        self.requests = 0
        self.failures_total = 0

    def _log_transition(self, old: str, new: str) -> None:
        if new == CircuitBreaker.OPEN:
            log.warning("replica_ejected", replica=self.key, cooldown_s=self.cooldown_s)
        elif new == CircuitBreaker.CLOSED:
            log.info("replica_readmitted", replica=self.key)

    @property
    def state(self) -> str:
        return _REPLICA_STATE[self._breaker.state]

    def admit(self) -> bool:
        """May this replica take a request now? Claims the half-open trial."""
        return self._breaker.allow()

    def record_success(self) -> None:
        with self._lock:
            self.requests += 1
        self._breaker.record_success()

    def record_failure(self) -> None:
        with self._lock:
            self.requests += 1
            self.failures_total += 1
        self._breaker.record_failure()

    def snapshot(self) -> dict[str, Any]:
        breaker = self._breaker.snapshot()
        with self._lock:
            requests, failures = self.requests, self.failures_total
        return {
            "replica": self.key,
            "state": _REPLICA_STATE[breaker["state"]],
            "requests": requests,
            "failures": failures,
            "ejections": breaker["trips"],
        }


class HashRing:
    """Consistent-hash ring with virtual nodes.

    ``preference(key)`` returns *all* members in ring-walk order from the
    key's hash point — position 0 is the owner, the rest the failover
    order — so routing and failover share one deterministic permutation.
    """

    def __init__(self, keys: list[str], vnodes: int = 64):
        if not keys:
            raise ValueError("hash ring needs at least one key")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        points: list[tuple[int, str]] = []
        for key in keys:
            for v in range(vnodes):
                points.append((self._hash(f"{key}#{v}"), key))
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]
        self._size = len(set(keys))

    @staticmethod
    def _hash(value: str) -> int:
        return int(hashlib.sha256(value.encode()).hexdigest()[:16], 16)

    def preference(self, routing_key: str) -> list[str]:
        start = bisect_right(self._hashes, self._hash(routing_key)) % len(self._points)
        seen: set[str] = set()
        order: list[str] = []
        for step in range(len(self._points)):
            key = self._points[(start + step) % len(self._points)][1]
            if key not in seen:
                seen.add(key)
                order.append(key)
                if len(order) == self._size:
                    break
        return order


@dataclass(frozen=True)
class RouterPolicy:
    """Knobs bounding every routing decision (no unbounded anything)."""

    #: Per-attempt socket timeout — connect and read (M3D210: explicit, always).
    attempt_timeout_s: float = 30.0
    #: Total attempts across the preference list before giving up.
    max_attempts: int = 3
    #: Consecutive failures before a replica is ejected.
    eject_after: int = 3
    #: How long an ejected replica sits out before its half-open trial.
    cooldown_s: float = 2.0
    #: Background health-probe cadence (None disables the prober).
    probe_interval_s: float | None = 0.5
    #: Socket timeout for each health probe.
    probe_timeout_s: float = 2.0
    #: Base/ceiling for the jittered inter-attempt backoff.
    backoff: ExponentialBackoff = field(
        default_factory=lambda: ExponentialBackoff(base_s=0.02, max_s=0.5)
    )
    #: Default deadline for requests that carry none.
    default_deadline_s: float = 30.0

    def __post_init__(self) -> None:
        positive = {
            "attempt_timeout_s": self.attempt_timeout_s,
            "probe_timeout_s": self.probe_timeout_s,
            "default_deadline_s": self.default_deadline_s,
        }
        if self.probe_interval_s is not None:
            positive["probe_interval_s"] = self.probe_interval_s
        for name, value in positive.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value}")
        if not (math.isfinite(self.cooldown_s) and self.cooldown_s >= 0):
            raise ValueError(f"cooldown_s must be a finite number >= 0, got {self.cooldown_s}")
        for name, count in (("max_attempts", self.max_attempts), ("eject_after", self.eject_after)):
            if count < 1:
                raise ValueError(f"{name} must be >= 1, got {count}")


@dataclass
class RoutedResponse:
    """What one proxied request resolved to, however many attempts it took."""

    status: int
    headers: dict[str, str]
    body: bytes
    replica: str | None
    attempts: int


class ReplicaRouter:
    """Routing core: preference-list failover over health-gated replicas.

    Deliberately independent of the HTTP server so tests can drive
    :meth:`dispatch` directly with fake replicas.
    """

    def __init__(
        self,
        replicas: list[tuple[str, int]],
        policy: RouterPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        if not replicas:
            raise ValueError("router needs at least one replica")
        self.policy = policy or RouterPolicy()
        self.tracer = tracer or NULL_TRACER
        self.replicas = [
            Replica(
                host,
                port,
                eject_after=self.policy.eject_after,
                cooldown_s=self.policy.cooldown_s,
            )
            for host, port in replicas
        ]
        if len({r.key for r in self.replicas}) != len(self.replicas):
            raise ValueError("duplicate replica specs")
        self._by_key = {r.key: r for r in self.replicas}
        self.ring = HashRing([r.key for r in self.replicas])
        self._draining = False
        self._prober: threading.Thread | None = None
        self._stop = threading.Event()
        self.metrics = metrics or MetricsRegistry()
        m = self.metrics
        self.m_requests = m.counter("m3d_route_requests_total", "requests routed")
        self.m_retries = m.counter(
            "m3d_route_retries_total", "extra attempts after a failed first try"
        )
        self.m_failovers = m.counter(
            "m3d_route_failovers_total", "requests served by a non-owner replica"
        )
        self.m_no_replica = m.counter(
            "m3d_route_unrouted_total", "requests that exhausted every replica (502)"
        )
        self.m_probes = m.counter("m3d_route_probes_total", "health probes sent")
        self.m_probe_failures = m.counter("m3d_route_probe_failures_total", "health probes failed")
        self.m_inflight = m.gauge("m3d_route_inflight", "proxied requests in flight")
        self.m_replicas_up = m.gauge("m3d_route_replicas_up", "replicas in the up state")
        self.m_replicas_up.set(len(self.replicas))
        # Federation scraper for GET /router/fleet: the router contributes
        # its own registry in-process; replicas are polled over HTTP.
        self.fleet = FleetScraper(
            members=[r.key for r in self.replicas],
            timeout_s=self.policy.probe_timeout_s,
            router_metrics_fn=self.metrics.to_json_dict,
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._prober is None and self.policy.probe_interval_s is not None:
            self._prober = threading.Thread(
                target=self._probe_loop, name="m3d-route-prober", daemon=True
            )
            self._prober.start()

    def close(self) -> None:
        self._stop.set()
        if self._prober is not None:
            self._prober.join(timeout=5.0)

    def begin_drain(self) -> None:
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def await_drain(self, deadline_s: float = 10.0) -> None:
        """Block until in-flight proxied requests hit zero (or deadline)."""
        deadline = Deadline.after(deadline_s)
        while self.m_inflight.value > 0 and not deadline.expired():
            time.sleep(0.005)

    # -- health ------------------------------------------------------------

    def _probe_loop(self) -> None:
        interval = self.policy.probe_interval_s or 0.5
        while not self._stop.wait(interval):
            try:
                for replica in self.replicas:
                    if self._stop.is_set():
                        return
                    state = replica.state
                    if state == REPLICA_EJECTED:
                        continue  # cooldown not matured; nothing to learn yet
                    if state == REPLICA_HALF_OPEN and not replica.admit():
                        continue  # a live request already claimed the trial
                    self.m_probes.inc()
                    if self._probe(replica):
                        replica.record_success()
                    else:
                        self.m_probe_failures.inc()
                        replica.record_failure()
                self.m_replicas_up.set(
                    sum(1 for r in self.replicas if r.state == REPLICA_UP)
                )
            except Exception:
                # A prober that dies silently stops readmitting replicas.
                log.exception("probe_iteration_failed")

    def _probe(self, replica: Replica) -> bool:
        # 200 covers ok *and* degraded: a degraded replica still serves. The
        # probe- trace id keeps probe traffic out of user traces in replica
        # logs and stitch output.
        headers = {TRACE_HEADER: f"{PROBE_TRACE_PREFIX}{new_trace_id()}"}
        health = fetch_json(replica.key, "/healthz", self.policy.probe_timeout_s, headers)
        return health is not None

    def health_snapshot(self) -> dict[str, Any]:
        """Router-level health: ``ok`` / ``degraded-k-of-n`` / ``unhealthy``."""
        workers = [r.snapshot() for r in self.replicas]
        up = sum(1 for w in workers if w["state"] == REPLICA_UP)
        return {
            "status": "draining" if self._draining else fleet_status(up, len(workers)),
            "replicas": workers,
            "inflight": self.m_inflight.value,
            "draining": self._draining,
        }

    # -- routing -----------------------------------------------------------

    @staticmethod
    def routing_key(method: str, path: str, body: bytes | None) -> str:
        """Body digest when there is one (payload affinity), path otherwise."""
        if body:
            return hashlib.sha256(body).hexdigest()
        return f"{method} {path}"

    @staticmethod
    def is_idempotent(method: str, path: str) -> bool:
        clean = urlparse(path).path
        return method in ("GET", "HEAD") or (method == "POST" and clean in _IDEMPOTENT_POSTS)

    def _deadline_for(self, headers: dict[str, str]) -> Deadline:
        raw = headers.get(DEADLINE_HEADER)
        if raw is not None:
            try:
                budget_ms = float(raw)
                if budget_ms > 0:
                    return Deadline.after(budget_ms / 1e3)
            except (TypeError, ValueError):
                pass  # malformed deadline: the replica will reject it with a 400
        return Deadline.after(self.policy.default_deadline_s)

    def dispatch(
        self, method: str, path: str, body: bytes | None, headers: dict[str, str]
    ) -> RoutedResponse:
        """Route one request: preference-list walk, bounded jittered retries.

        Every admitted request resolves — to a replica's response, to the
        last replica 5xx seen, to a 504 when the deadline expires before an
        attempt can be made, or to a structured 502 when every replica is
        unreachable. Nothing is silently dropped.

        When a tracer is attached, each request emits a ``route`` trace
        (route decision, per-attempt upstream calls, backoff, failover) to
        the same trace id forwarded downstream, so ``m3d-obs stitch`` can
        join the router's view with the replicas'.
        """
        trace_ctx = self.tracer.trace("route", method=method, path=urlparse(path).path)
        trace_id = getattr(trace_ctx, "trace_id", "")
        if trace_id and not headers.get(TRACE_HEADER):
            # Stamp the id the router is tracing under onto the upstream
            # request, so the replica's trace joins ours in `m3d-obs stitch`
            # even when the client never sent one.
            headers = {**headers, TRACE_HEADER: trace_id}
        with trace_ctx:
            response = self._dispatch(trace_id, method, path, body, headers)
            self.tracer.annotate(
                trace_id,
                status=response.status,
                replica=response.replica,
                attempts=response.attempts,
            )
            return response

    def _dispatch(
        self,
        trace_id: str,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict[str, str],
    ) -> RoutedResponse:
        self.m_requests.inc()
        deadline = self._deadline_for(headers)
        idempotent = self.is_idempotent(method, path)
        t0 = time.perf_counter()
        preference = self.ring.preference(self.routing_key(method, path, body))
        self.tracer.record(
            trace_id,
            "route_decision",
            time.perf_counter() - t0,
            owner=preference[0],
            candidates=len(preference),
        )
        backoff = ExponentialBackoff(
            base_s=self.policy.backoff.base_s,
            factor=self.policy.backoff.factor,
            max_s=self.policy.backoff.max_s,
        )
        attempts = 0
        last: RoutedResponse | None = None
        self.m_inflight.inc()
        try:
            for rank, key in enumerate(preference):
                if attempts >= self.policy.max_attempts:
                    break
                if deadline.expired():
                    return self._deadline_response(attempts)
                replica = self._by_key[key]
                if not replica.admit():
                    continue
                if attempts > 0:
                    self.m_retries.inc()
                    delay = jittered(backoff.next_delay())
                    time.sleep(delay)
                    self.tracer.record(
                        trace_id, "retry_backoff", delay, attempt=attempts + 1
                    )
                attempts += 1
                t_attempt = time.perf_counter()
                kind, result = self._attempt(replica, method, path, body, headers, deadline)
                outcome = result.status if isinstance(result, RoutedResponse) else kind
                self.tracer.record(
                    trace_id,
                    "upstream_attempt",
                    time.perf_counter() - t_attempt,
                    replica=replica.key,
                    rank=rank,
                    attempt=attempts,
                    outcome=outcome,
                )
                if kind == "response":
                    assert isinstance(result, RoutedResponse)
                    result.attempts = attempts
                    if result.status in _FAILOVER_STATUSES:
                        replica.record_failure()
                        last = result
                        if not idempotent:
                            return result
                        continue  # try the next replica in preference order
                    replica.record_success()
                    if rank > 0:
                        self.m_failovers.inc()
                        self.tracer.record(
                            trace_id,
                            "failover",
                            0.0,
                            owner=preference[0],
                            served_by=replica.key,
                            rank=rank,
                        )
                    return result
                replica.record_failure()
                log.warning(
                    "replica_attempt_failed",
                    replica=replica.key,
                    phase=kind,
                    error=str(result),
                    attempt=attempts,
                )
                if kind == "send" and not idempotent:
                    # The replica may have executed the request; replaying a
                    # non-idempotent call could double-apply it.
                    return RoutedResponse(
                        status=502,
                        headers={"Content-Type": "application/json"},
                        body=self._error_body(
                            "replica_failed",
                            f"replica {replica.key} failed mid-request "
                            "(not retried: non-idempotent)",
                        ),
                        replica=replica.key,
                        attempts=attempts,
                    )
            if last is not None:
                return last  # best answer we have: the final replica 5xx
            self.m_no_replica.inc()
            return RoutedResponse(
                status=502,
                headers={"Content-Type": "application/json"},
                body=self._error_body(
                    "no_replica_available",
                    f"all {len(self.replicas)} replicas unreachable or ejected",
                ),
                replica=None,
                attempts=attempts,
            )
        finally:
            self.m_inflight.dec()

    def _attempt(
        self,
        replica: Replica,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict[str, str],
        deadline: Deadline,
    ) -> tuple[str, RoutedResponse | BaseException]:
        """One try against one replica.

        Returns ``("response", RoutedResponse)`` on any HTTP response,
        ``("connect", exc)`` when the TCP connect failed (nothing sent —
        always safe to retry), or ``("send", exc)`` when the failure came
        after the request may have reached the replica (retry only if
        idempotent). The explicit ``connect()`` call is what makes the
        distinction trustworthy.
        """
        timeout = min(self.policy.attempt_timeout_s, max(0.001, deadline.remaining()))
        conn = http.client.HTTPConnection(replica.host, replica.port, timeout=timeout)
        try:
            try:
                conn.connect()
            except (OSError, http.client.HTTPException) as exc:
                return ("connect", exc)
            fwd = {k: v for k, v in headers.items() if k in _FORWARD_REQUEST_HEADERS}
            fwd[DEADLINE_HEADER] = str(max(1, int(deadline.remaining() * 1e3)))
            try:
                conn.request(method, path, body=body, headers=fwd)
                response = conn.getresponse()
                payload = response.read()
            except (OSError, http.client.HTTPException) as exc:
                return ("send", exc)
            relayed = {
                name: value
                for name, value in response.getheaders()
                if name in _RELAY_RESPONSE_HEADERS
            }
            relayed[REPLICA_HEADER] = replica.key
            return (
                "response",
                RoutedResponse(
                    status=response.status,
                    headers=relayed,
                    body=payload,
                    replica=replica.key,
                    attempts=0,  # dispatch() stamps the true count
                ),
            )
        finally:
            conn.close()

    def _deadline_response(self, attempts: int) -> RoutedResponse:
        return RoutedResponse(
            status=504,
            headers={"Content-Type": "application/json"},
            body=self._error_body("deadline_exceeded", "deadline expired before routing"),
            replica=None,
            attempts=attempts,
        )

    @staticmethod
    def _error_body(error: str, detail: str) -> bytes:
        payload = {"error": error, "detail": detail}
        trace_id = current_trace_id()
        if trace_id is not None:
            payload["trace_id"] = trace_id
        return json.dumps(payload).encode()


class RouterHTTPServer(ThreadedHTTPServer):
    """Threaded front for a :class:`ReplicaRouter`."""

    def __init__(self, address: tuple[str, int], router: ReplicaRouter):
        super().__init__(address, _RouterHandler)
        self.router = router


class _RouterHandler(JSONHandler):
    server_version = "m3d-route/0.1"
    access_event = "router_access"
    server: RouterHTTPServer

    def route(self, method: str) -> None:
        router = self.server.router
        path = urlparse(self.path).path
        if path == "/router/healthz":
            self.send_health(router.health_snapshot())
            return
        if path == "/router/metrics":
            self.send_json(200, router.metrics.to_json_dict())
            return
        if path == "/router/fleet":
            self.send_json(200, router.fleet.scrape())
            return
        if router.draining:
            self.send_json(503, {"error": "draining", "detail": "router is draining"})
            return
        body = self.read_body(required=False) or None
        headers = {k: v for k, v in self.headers.items()}
        response = router.dispatch(method, self.path, body, headers)
        self.send_bytes(
            response.status,
            response.body,
            {**response.headers, ATTEMPTS_HEADER: str(response.attempts)},
        )


def create_router_server(
    router: ReplicaRouter, host: str = "127.0.0.1", port: int = 0
) -> RouterHTTPServer:
    """Bind the router front (``port=0`` → ephemeral) and start its prober."""
    server = RouterHTTPServer((host, port), router)
    router.start()
    return server
