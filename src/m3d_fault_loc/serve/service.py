"""Localization service with one supervised worker.

Request path: callers (one per HTTP connection thread) gate their graph
through the m3dlint contract engine — ERROR findings raise
:class:`~m3d_fault_loc.data.dataset.GraphContractError` and never reach the
model — then look up the content-hash cache and, on a miss, enqueue the
graph on a *bounded* thread-safe admission queue. Every request runs under a
fault *scenario* (default ``single_delay``): the contract gate composes the
structural rules with that scenario's M3D11x payload rules
(:func:`~m3d_fault_loc.scenarios.build_scenario_engine`), results and
cache keys are scenario-tagged, and request/rejection counters carry a
``scenario`` label on ``/metrics``. An unknown scenario raises
:class:`~m3d_fault_loc.scenarios.UnknownScenarioError` (→ HTTP 422).

**Worker.** One worker thread takes one request at a time off the queue,
drops it if its deadline has passed, runs one ``node_scores`` forward pass
on its graph, and resolves its future. The paper diagnoses one failing die
at a time, and stacking queued graphs into one forward measured slower per
graph than scoring them one by one. Workers are threads sharing one GIL,
so more of them would add no capacity; scale-out is separate ``m3d-serve``
processes behind ``m3d-route``.

Failure modes are explicit and bounded (see
:mod:`m3d_fault_loc.serve.resilience`):

- every request carries a :class:`Deadline`; an expired request raises
  :class:`DeadlineExceededError` at the caller and is *dropped* by the
  worker instead of wasting a forward pass;
- a full admission queue sheds the request
  (:class:`LoadSheddedError` → HTTP 429) instead of growing without bound;
  the advertised ``Retry-After`` is derived from queue depth and jittered
  ±20 % so shed clients do not stampede back in sync;
- consecutive forward failures trip a half-open :class:`CircuitBreaker`
  (:class:`CircuitOpenError` → HTTP 503) that probes before closing;
- a watchdog thread supervises the worker: a dead or stalled worker has
  its in-flight and queued futures failed with :class:`WorkerCrashedError`
  and is restarted after an exponential backoff; requests admitted while
  the restart is pending wait in the queue for the replacement. The
  ``ok``/``degraded``/``unhealthy`` health machine lands on ``/healthz``;
- draining stops admission, lets queued work finish within a deadline, and
  fails leftovers deterministically with :class:`ServiceDrainingError`;
  each refused call is counted in ``m3d_drain_rejections_total``.

The model, its ``/model`` identity and the cache keys are fixed for the
life of the service. Changing the served model is a replica replacement
behind ``m3d-route``.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from m3d_fault_loc.analysis.engine import RuleEngine
from m3d_fault_loc.data.dataset import GraphContractError, gate_graph
from m3d_fault_loc.scenarios import (
    DEFAULT_SCENARIO,
    SCENARIOS,
    build_scenario_engine,
    get_scenario,
    top_k as top_k_indices,
)
from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.obs.context import current_trace_id, new_trace_id
from m3d_fault_loc.obs.logging import get_logger
from m3d_fault_loc.obs.trace import Tracer
from m3d_fault_loc.serve.cache import LRUResultCache, graph_digest
from m3d_fault_loc.serve.metrics import MetricsRegistry
from m3d_fault_loc.serve.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceededError,
    ExponentialBackoff,
    HealthMonitor,
    LoadSheddedError,
    ServiceDrainingError,
    WorkerCrashedError,
    jittered,
)

log = get_logger(__name__)

#: How often an idle worker wakes to check for stop/generation changes.
_IDLE_POLL_S = 0.05
#: How often the drain loop re-checks for an empty pipeline.
_DRAIN_POLL_S = 0.005
#: The replica's leaf trace spans; ``m3d_stage_seconds`` labels its series
#: with the same names.
STAGES = ("contract_gate", "cache_lookup", "queue_wait", "batch_infer")


@dataclass(frozen=True)
class LocalizationResult:
    """One served localization: ranked fault-origin candidates + provenance."""

    graph_name: str
    digest: str
    model_name: str
    model_version: str
    num_nodes: int
    top: tuple[dict[str, Any], ...]
    warnings: tuple[str, ...]
    cached: bool = False
    latency_s: float = 0.0
    trace_id: str = ""
    scenario: str = DEFAULT_SCENARIO

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "graph": self.graph_name,
            "digest": self.digest,
            "model": {"name": self.model_name, "version": self.model_version},
            "num_nodes": self.num_nodes,
            "top": [dict(entry) for entry in self.top],
            "warnings": list(self.warnings),
            "cached": self.cached,
            "latency_ms": round(self.latency_s * 1e3, 3),
            "trace_id": self.trace_id,
            "scenario": self.scenario,
        }


@dataclass
class _Pending:
    graph: CircuitGraph
    digest: str
    top_k: int
    warnings: tuple[str, ...]
    deadline: Deadline
    trace_id: str = ""
    scenario: str = DEFAULT_SCENARIO
    enqueued_at: float = 0.0
    future: Future = field(default_factory=Future)

    def complete(self, result: LocalizationResult) -> bool:
        """Resolve the future; ``False`` if something else resolved it first."""
        try:
            self.future.set_result(result)
            return True
        except InvalidStateError:
            return False

    def fail(self, exc: BaseException) -> bool:
        try:
            self.future.set_exception(exc)
            return True
        except InvalidStateError:
            return False


class LocalizationService:
    """Thread-safe, queued front end over one :class:`DelayFaultLocalizer`."""

    def __init__(
        self,
        model: DelayFaultLocalizer,
        engine: RuleEngine | None = None,
        cache_size: int = 1024,
        request_timeout_s: float | None = 30.0,
        metrics: MetricsRegistry | None = None,
        max_queue: int = 256,
        shed_retry_after_s: float = 1.0,
        breaker: CircuitBreaker | None = None,
        watchdog_interval_s: float | None = 0.2,
        stall_timeout_s: float | None = 30.0,
        restart_backoff: ExponentialBackoff | None = None,
        unhealthy_after: int = 3,
        drain_deadline_s: float = 5.0,
        tracer: Tracer | None = None,
    ):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if request_timeout_s is not None and not request_timeout_s > 0:
            raise ValueError(f"request_timeout_s must be > 0 or None, got {request_timeout_s}")
        if not drain_deadline_s > 0:
            raise ValueError(f"drain_deadline_s must be > 0, got {drain_deadline_s}")
        self.max_queue = max_queue
        self.request_timeout_s = request_timeout_s
        self.shed_retry_after_s = shed_retry_after_s
        self.watchdog_interval_s = watchdog_interval_s
        self.stall_timeout_s = stall_timeout_s
        self.drain_deadline_s = drain_deadline_s
        self._cache = LRUResultCache(capacity=cache_size)
        # Worker and supervision state. ``_gen`` retires a superseded
        # thread, ``_heartbeat`` feeds stall detection, ``_in_flight`` is
        # what the watchdog fails when the worker dies mid-forward, and
        # ``_restart_at`` schedules the respawn so the watchdog never sleeps.
        self._queue: queue.Queue[_Pending | None] = queue.Queue(maxsize=max_queue)
        self._worker: threading.Thread | None = None
        self._gen = 0
        self._heartbeat = time.monotonic()
        self._in_flight: _Pending | None = None
        self._flight_lock = threading.Lock()
        self._backoff = restart_backoff or ExponentialBackoff(base_s=0.05, max_s=2.0)
        self._restart_at: float | None = None
        self._watchdog: threading.Thread | None = None
        self._start_lock = threading.Lock()
        self._stop_requested = threading.Event()
        self._draining = False
        self._closed = False
        self.tracer = tracer or Tracer()

        self.metrics = metrics or MetricsRegistry()
        m = self.metrics
        self.m_requests = m.counter("m3d_requests_total", "localization requests received")
        self.m_cache_hits = m.counter(
            "m3d_cache_hits_total", "requests served from the result cache"
        )
        self.m_rejections = m.counter(
            "m3d_contract_rejections_total", "requests rejected by the m3dlint contract gate"
        )
        self.m_errors = m.counter("m3d_request_errors_total", "requests failed inside the worker")
        self.m_forward_passes = m.counter(
            "m3d_forward_passes_total", "model forward passes executed"
        )
        self.m_shed = m.counter(
            "m3d_shed_total", "requests shed because the admission queue was full"
        )
        self.m_deadline = m.counter(
            "m3d_deadline_exceeded_total", "requests that exceeded their deadline"
        )
        self.m_breaker_trips = m.counter(
            "m3d_breaker_trips_total", "circuit breaker transitions into the open state"
        )
        self.m_breaker_rejections = m.counter(
            "m3d_breaker_rejections_total", "requests refused while the breaker was open"
        )
        self.m_worker_restarts = m.counter(
            "m3d_worker_restarts_total", "worker restarts by the watchdog"
        )
        self.m_drain_failed = m.counter(
            "m3d_drain_failures_total", "requests failed at the drain deadline"
        )
        self.m_drain_rejections = m.counter(
            "m3d_drain_rejections_total", "requests refused while draining or closed"
        )
        self.m_queue_depth = m.gauge("m3d_queue_depth", "requests waiting in the admission queue")
        self.m_breaker_state = m.state_gauge(
            "m3d_breaker_state", "circuit breaker state", states=CircuitBreaker.STATES
        )
        self.m_health_state = m.state_gauge(
            "m3d_health_state", "service health state", states=HealthMonitor.STATES
        )
        self.m_latency = m.histogram(
            "m3d_request_latency_seconds", "end-to-end localization latency"
        )
        self.m_stage = {
            stage: m.histogram(
                "m3d_stage_seconds", "per-stage latency by trace span", labels={"stage": stage}
            )
            for stage in STAGES
        }
        #: Per scenario: its contract engine (structural rules + M3D110 tag
        #: rule + its own M3D11x rules) and its request/rejection counters.
        self._scenarios = {}
        for name in SCENARIOS:
            labels = {"scenario": name}
            self._scenarios[name] = (
                build_scenario_engine(name, base_engine=engine),
                m.counter("m3d_scenario_requests_total", "requests by scenario", labels),
                m.counter("m3d_scenario_rejections_total", "gate rejections by scenario", labels),
            )

        self._breaker = breaker or CircuitBreaker()
        self._breaker.set_transition_listener(self._on_breaker_transition)
        self.m_breaker_state.set_state(self._breaker.state)
        self._health = HealthMonitor(
            unhealthy_after=unhealthy_after, on_transition=self._on_health_transition
        )
        self.m_health_state.set_state(self._health.status)

        self._model = model
        fingerprint = model.fingerprint()
        self._model_info: dict[str, Any] = {
            "source": "adhoc",
            "name": "adhoc",
            "version": fingerprint[:12],
            "sha256": fingerprint,
            "in_dim": model.in_dim,
            "hidden": model.hidden,
            "metadata": dict(model.artifact_meta),
        }

    # -- admission queue ---------------------------------------------------

    def queue_depth(self) -> int:
        """Requests waiting in the admission queue."""
        return self._queue.qsize()

    def _shed_retry_after_s(self) -> float:
        """Queue-depth-derived, ±20 %-jittered shed backoff.

        The deeper the backlog relative to capacity, the longer shed
        clients are told to wait; jitter spreads their return so a burst
        of 429s does not come back as a synchronized second burst.
        """
        fill = self.queue_depth() / float(max(1, self.max_queue))
        return jittered(self.shed_retry_after_s * (1.0 + fill))

    # -- observability hooks ----------------------------------------------

    def _on_breaker_transition(self, old: str, new: str) -> None:
        self.m_breaker_state.set_state(new)
        if new == CircuitBreaker.OPEN:
            self.m_breaker_trips.inc()
        log.warning("breaker_transition", old=old, new=new)

    def _on_health_transition(self, old: str, new: str) -> None:
        self.m_health_state.set_state(new)
        emit = log.info if new == HealthMonitor.OK else log.warning
        emit("health_transition", old=old, new=new)

    def _observe_stage(
        self, stage: str, trace_id: str, duration_s: float, parent: str | None = None, **meta: Any
    ) -> None:
        """One measured pipeline stage: feed its histogram and the trace."""
        self.m_stage[stage].observe(duration_s)
        self.tracer.record(trace_id, stage, duration_s, parent=parent, **meta)

    # -- model identity ----------------------------------------------------

    def describe_model(self) -> dict[str, Any]:
        """Identity of the model answering requests (``/model``)."""
        return dict(self._model_info)

    def cache_stats(self) -> dict[str, Any]:
        stats: dict[str, Any] = self._cache.stats()
        agg = getattr(self._model, "agg_cache", None)
        if agg is not None:
            stats["agg_operator"] = agg.stats()
        return stats

    def health_snapshot(self) -> dict[str, Any]:
        """Structured health for ``/healthz``: status machine + components."""
        health = self._health.snapshot()
        status = health.pop("status")
        if self._draining or self._closed:
            status = "draining"
        info = self.describe_model()
        worker = self._worker
        return {
            "status": status,
            "model": {"name": info["name"], "version": info["version"]},
            "worker": {"alive": worker is not None and worker.is_alive(), **health},
            "breaker": self._breaker.snapshot(),
            "queue_depth": self.queue_depth(),
            "draining": bool(self._draining or self._closed),
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        with self._start_lock:
            if self._closed:
                raise ServiceDrainingError("closed")
            if self._worker is None:
                self._spawn_worker()
            if self._watchdog is None and self.watchdog_interval_s is not None:
                self._watchdog = threading.Thread(
                    target=self._watchdog_loop, name="m3d-localize-watchdog", daemon=True
                )
                self._watchdog.start()

    def _spawn_worker(self) -> None:
        gen = self._gen
        self._heartbeat = time.monotonic()
        self._restart_at = None
        self._worker = threading.Thread(
            target=self._worker_loop,
            args=(gen,),
            name=f"m3d-localize-worker-g{gen}",
            daemon=True,
        )
        self._worker.start()

    def begin_drain(self) -> None:
        """Stop admitting requests; already-queued work keeps flowing."""
        with self._start_lock:
            self._draining = True

    def await_drain(self, deadline_s: float | None = None) -> dict[str, int]:
        """Wait for the pipeline to empty, then fail leftovers deterministically.

        Returns ``{"failed": n}`` — the number of requests that could not
        complete within the drain deadline and were failed with
        :class:`ServiceDrainingError` (also counted in
        ``m3d_drain_failures_total``).
        """
        deadline = Deadline.after(deadline_s if deadline_s is not None else self.drain_deadline_s)
        while not deadline.expired():
            with self._flight_lock:
                busy = self._in_flight is not None
            if not busy and self.queue_depth() == 0:
                break
            time.sleep(_DRAIN_POLL_S)
        failed = self._fail_pending(ServiceDrainingError("draining"))
        if failed:
            self.m_drain_failed.inc(failed)
        return {"failed": failed}

    def drain(self, deadline_s: float | None = None) -> dict[str, int]:
        """``begin_drain()`` + ``await_drain()`` in one call."""
        self.begin_drain()
        return self.await_drain(deadline_s)

    def close(self) -> None:
        with self._start_lock:
            if self._closed:
                return
            self._closed = True
            self._draining = True
            # The watchdog respawns only under this lock and only while the
            # service is open, so this is the last worker there will be.
            worker = self._worker
            watchdog = self._watchdog
        if worker is not None and worker.is_alive():
            self.await_drain(self.drain_deadline_s)
        self._stop_requested.set()
        if worker is not None:
            try:
                self._queue.put_nowait(None)
            except queue.Full:
                pass
            worker.join(timeout=5.0)
        if watchdog is not None:
            watchdog.join(timeout=5.0)

    def __enter__(self) -> LocalizationService:
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request path ------------------------------------------------------

    def localize(
        self,
        graph: CircuitGraph,
        top_k: int = 5,
        timeout_s: float | None = None,
        scenario: str | None = None,
    ) -> LocalizationResult:
        """Gate, cache-check, and (on a miss) score one graph on the worker.

        ``timeout_s`` is this request's deadline (defaults to the service's
        ``request_timeout_s``); it bounds queue wait *and* is honored by the
        worker, which drops expired requests instead of scoring them.
        ``scenario`` selects the fault scenario whose contract rules gate the
        payload (default ``single_delay`` — the pre-scenario behavior).

        Raises :class:`~m3d_fault_loc.data.dataset.GraphContractError` on
        contract violations,
        :class:`~m3d_fault_loc.scenarios.UnknownScenarioError` for an
        unregistered scenario, :class:`LoadSheddedError` when the admission
        queue is full, :class:`CircuitOpenError` while the breaker is open,
        :class:`DeadlineExceededError` past the deadline, and
        :class:`ServiceDrainingError` once the service is draining or closed
        — each a structured rejection rather than a hang or a wrong answer.
        """
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        if self._closed or self._draining:
            self.m_requests.inc()
            self.m_drain_rejections.inc()
            raise ServiceDrainingError("closed" if self._closed else "draining")
        scenario_name = get_scenario(scenario or DEFAULT_SCENARIO).name
        self.start()
        started = time.perf_counter()
        deadline = Deadline.after(timeout_s if timeout_s is not None else self.request_timeout_s)
        trace_id = current_trace_id() or new_trace_id()
        self.m_requests.inc()
        _, scenario_requests, _ = self._scenarios[scenario_name]
        scenario_requests.inc()
        with self.tracer.trace(
            "localize", trace_id=trace_id, graph=graph.name, scenario=scenario_name
        ):
            return self._localize_traced(
                graph, top_k, deadline, started, trace_id, scenario_name
            )

    def _localize_traced(
        self,
        graph: CircuitGraph,
        top_k: int,
        deadline: Deadline,
        started: float,
        trace_id: str,
        scenario: str,
    ) -> LocalizationResult:
        """The traced request body: every stage lands in a span + histogram.

        Top-level stages (``contract_gate``, ``cache_lookup``,
        ``await_result``) partition the request's wall time; the worker-side
        ``queue_wait`` / ``batch_infer`` spans (one observation per forward)
        are children of
        ``await_result`` (tagged ``parent``), so summing the top level
        reconstructs the request total while the children explain where the
        await went.
        """
        t0 = time.perf_counter()
        engine, _, rejections = self._scenarios[scenario]
        try:
            warnings = gate_graph(graph, engine)
        except GraphContractError:
            self.m_rejections.inc()
            rejections.inc()
            raise
        finally:
            self._observe_stage(
                "contract_gate", trace_id, time.perf_counter() - t0, scenario=scenario
            )

        t0 = time.perf_counter()
        digest = graph_digest(graph)
        key = f"{scenario}:{top_k}:{digest}"
        hit = self._cache.get(key)
        self._observe_stage(
            "cache_lookup", trace_id, time.perf_counter() - t0, hit=hit is not None
        )
        if hit is not None:
            self.m_cache_hits.inc()
            latency = time.perf_counter() - started
            self.m_latency.observe(latency)
            return replace(hit, cached=True, latency_s=latency, trace_id=trace_id)

        if not self._breaker.allow():
            self.m_breaker_rejections.inc()
            raise CircuitOpenError(jittered(self._breaker.retry_after_s()))

        pending = _Pending(
            graph=graph,
            digest=digest,
            top_k=top_k,
            warnings=tuple(v.render() for v in warnings),
            deadline=deadline,
            trace_id=trace_id,
            scenario=scenario,
        )
        pending.enqueued_at = time.perf_counter()
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            self.m_shed.inc()
            raise LoadSheddedError(self.max_queue, self._shed_retry_after_s()) from None
        self.m_queue_depth.set(self._queue.qsize())
        with self.tracer.span("await_result", trace_id=trace_id):
            try:
                result: LocalizationResult = pending.future.result(timeout=deadline.remaining())
            except FutureTimeoutError:
                self.m_deadline.inc()
                raise DeadlineExceededError(deadline.budget_s, where="await") from None
            except DeadlineExceededError:
                self.m_deadline.inc()
                raise
            except Exception:
                self.m_errors.inc()
                raise
        latency = time.perf_counter() - started
        self.m_latency.observe(latency)
        return replace(result, latency_s=latency, trace_id=trace_id)

    # -- worker ------------------------------------------------------------

    def _worker_loop(self, gen: int) -> None:
        while True:
            try:
                if self._gen != gen:
                    return  # superseded by a watchdog restart
                self._heartbeat = time.monotonic()
                try:
                    p = self._queue.get(timeout=_IDLE_POLL_S)
                except queue.Empty:
                    if self._stop_requested.is_set():
                        return
                    continue
                if p is None:
                    return
                self.m_queue_depth.set(self._queue.qsize())
                if p.deadline.expired():
                    # Fail it instead of spending a forward pass on it.
                    p.fail(DeadlineExceededError(p.deadline.budget_s, where="admission queue"))
                    continue
                wait_s = max(0.0, time.perf_counter() - p.enqueued_at)
                self._observe_stage("queue_wait", p.trace_id, wait_s, parent="await_result")
                # Gen-guarded: a worker superseded mid-forward by the watchdog
                # must not clobber its replacement's in-flight record.
                with self._flight_lock:
                    if self._gen == gen:
                        self._in_flight = p
                self._infer(p)
                with self._flight_lock:
                    if self._gen == gen:
                        self._in_flight = None
            except Exception:
                # A worker that dies silently strands every queued future;
                # anything short of thread death must keep the loop alive.
                log.exception("worker_iteration_failed")

    def _infer(self, p: _Pending) -> None:
        """One forward pass for one request; resolves its future."""
        t0 = time.perf_counter()
        try:
            scores = self._model.node_scores(p.graph)
            infer_s = time.perf_counter() - t0
            # Guarded too: scores no result can be built from fail this
            # request instead of leaving its future unresolved.
            result = self._build_result(p, scores, self._model_info)
        except Exception as exc:
            self._breaker.record_failure()
            log.error("forward_failed", trace_id=p.trace_id, error=type(exc).__name__)
            p.fail(exc)
            return
        self._observe_stage("batch_infer", p.trace_id, infer_s, parent="await_result")
        self._breaker.record_success()
        self._health.record_success()
        self._backoff.reset()
        self.m_forward_passes.inc()
        self._cache.put(f"{p.scenario}:{p.top_k}:{p.digest}", result)
        p.complete(result)

    # -- supervision -------------------------------------------------------

    def _watchdog_loop(self) -> None:
        interval = self.watchdog_interval_s or 0.2
        while True:
            try:
                if self._stop_requested.wait(interval):
                    return
                self._supervise(time.monotonic())
            except Exception:
                log.exception("watchdog_iteration_failed")

    def _supervise(self, now: float) -> None:
        """One watchdog pass: respawn if due, else health-check the worker.

        The restart backoff is a *scheduled time* (``_restart_at``), never a
        sleep. A dead or stalled worker has its in-flight and queued futures
        failed; requests admitted while the restart is pending wait in the
        queue for the replacement worker.
        """
        if self._restart_at is not None:
            if now >= self._restart_at:
                with self._start_lock:
                    if not self._closed:
                        self._spawn_worker()
            return
        worker = self._worker
        if worker is None:
            return
        dead = not worker.is_alive()
        stalled = not dead and self._stalled()
        if not (dead or stalled):
            return
        reason = "worker thread died" if dead else "worker stalled"
        log.error("watchdog_restart", reason=reason)
        self._health.record_worker_failure(reason)
        self.m_worker_restarts.inc()
        self._gen += 1  # a stalled-but-alive worker exits when it unblocks
        self._fail_pending(WorkerCrashedError(f"{reason}; failed by watchdog"))
        self._restart_at = now + self._backoff.next_delay()

    def _stalled(self) -> bool:
        if self.stall_timeout_s is None:
            return False
        with self._flight_lock:
            busy = self._in_flight is not None
        busy = busy or self._queue.qsize() > 0
        return busy and (time.monotonic() - self._heartbeat) > self.stall_timeout_s

    def _fail_pending(self, exc: BaseException) -> int:
        """Fail every stranded request (in-flight + queued); returns count.

        Each victim is logged with *its own* trace id — the watchdog and the
        drain path run far from the request's thread, so the ambient context
        cannot name the casualties; the pending record can.
        """
        with self._flight_lock:
            stranded = [] if self._in_flight is None else [self._in_flight]
            self._in_flight = None
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                stranded.append(item)
        self.m_queue_depth.set(0)
        failed = 0
        for p in stranded:
            if p.fail(exc):
                failed += 1
                log.warning(
                    "pending_request_failed",
                    trace_id=p.trace_id,
                    error=type(exc).__name__,
                    detail=str(exc),
                )
        return failed

    @staticmethod
    def _build_result(
        pending: _Pending, scores: np.ndarray, info: dict[str, Any]
    ) -> LocalizationResult:
        graph = pending.graph
        if scores.shape != (graph.num_nodes,):
            raise ValueError(f"model returned {scores.shape} scores for {graph.num_nodes} nodes")
        order = top_k_indices(scores, pending.top_k)
        shifted = scores - scores.max()
        probs = np.exp(shifted)
        probs /= probs.sum()
        top = tuple(
            {
                "index": int(i),
                "node": graph.node_names[int(i)],
                "tier": int(graph.tier[int(i)]),
                "score": float(scores[int(i)]),
                "prob": float(probs[int(i)]),
            }
            for i in order
        )
        return LocalizationResult(
            graph_name=graph.name,
            digest=pending.digest,
            model_name=str(info["name"]),
            model_version=str(info["version"]),
            num_nodes=graph.num_nodes,
            top=top,
            warnings=pending.warnings,
            trace_id=pending.trace_id,
            scenario=pending.scenario,
        )
