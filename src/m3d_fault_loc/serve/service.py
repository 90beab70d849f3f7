"""Micro-batched localization service with a supervised worker pool.

Request path: callers (one per HTTP connection thread) gate their graph
through the m3dlint contract engine — ERROR findings raise
:class:`~m3d_fault_loc.data.dataset.GraphContractError` and never reach the
model — then look up the content-hash cache and, on a miss, enqueue the
graph on a *bounded* thread-safe shard queue. Every request runs under a
fault *scenario* (default ``single_delay``): the contract gate composes the
structural rules with that scenario's M3D11x payload rules
(:func:`~m3d_fault_loc.scenarios.build_scenario_engine`), results and
cache keys are scenario-tagged, and per-scenario request/rejection counters
land on ``/metrics``. An unknown scenario raises
:class:`~m3d_fault_loc.scenarios.UnknownScenarioError` (→ HTTP 422).

**Worker pool.** ``num_workers`` batch workers (default 1 — the original
single-worker topology) each own one *shard*: a bounded queue plus a worker
thread that drains it into micro-batches (whatever is already queued when
the worker goes idle, up to ``max_batch`` graphs — it never waits for a
partner), runs one stacked
``node_scores_batch`` forward pass, and resolves the per-request futures.
Requests are routed to shards by **hash of content digest**, so a repeat
payload lands on the same worker. The model, and with it its
topology-keyed ``AggregationOperatorCache``, is shared by every shard.

Failure modes are explicit and bounded (see
:mod:`m3d_fault_loc.serve.resilience`):

- every request carries a :class:`Deadline`; an expired request raises
  :class:`DeadlineExceededError` at the caller and is *dropped* by the
  worker instead of wasting a forward pass;
- a full shard queue sheds the request
  (:class:`LoadSheddedError` → HTTP 429) instead of growing without bound;
  the advertised ``Retry-After`` is derived from queue depth and jittered
  ±20 % so shed clients do not stampede back in sync;
- consecutive batch failures trip a half-open :class:`CircuitBreaker`
  (:class:`CircuitOpenError` → HTTP 503) that probes before closing;
- one watchdog thread supervises **every** worker: a dead or stalled worker
  fails only *its shard's* in-flight futures with
  :class:`WorkerCrashedError` (crash isolation — sibling shards keep
  serving), is restarted with per-shard exponential backoff, and while the
  restart is pending its shard is **rerouted to siblings** in degraded
  mode; the ``ok``/``degraded``/``unhealthy`` health machine plus a
  pool-aware ``ok``/``degraded-k-of-n``/``unhealthy`` state land on
  ``/healthz``;
- draining stops admission, lets queued work finish within a deadline, and
  fails leftovers deterministically with :class:`ServiceDrainingError`.

The registry's activation pointer is polled at request entry and between
batches: swapping ``ACTIVE`` in the registry hot-reloads the model without
dropping requests. A reload that fails (corrupt artifact, I/O error) keeps
the current model serving and is counted, never propagated to callers.
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

from m3d_fault_loc.analysis.engine import RuleEngine, default_engine
from m3d_fault_loc.data.dataset import GraphContractError, gate_graph
from m3d_fault_loc.scenarios import DEFAULT_SCENARIO, build_scenario_engine, get_scenario
from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.obs.context import current_trace_id, new_trace_id
from m3d_fault_loc.obs.logging import get_logger
from m3d_fault_loc.obs.trace import Tracer
from m3d_fault_loc.serve.cache import LRUResultCache, graph_digest
from m3d_fault_loc.serve.metrics import DEFAULT_SIZE_BUCKETS, Histogram, MetricsRegistry
from m3d_fault_loc.serve.registry import ModelManifest, ModelRegistry
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

#: Worker thread-name prefix; the shard index follows it. The chaos harness
#: (``m3d_fault_loc.testing.chaos.current_shard_index``) relies on this to
#: target faults at worker *i* of *n* through a shared model object.
WORKER_THREAD_PREFIX = "m3d-localize-worker-"


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


class _WorkerShard:
    """One worker's slice of the pool: queue, thread, and supervision state.

    Everything the watchdog needs to supervise — and restart — one worker
    independently of its siblings lives here: the bounded shard queue, the
    generation counter that retires superseded threads, the heartbeat for
    stall detection, the in-flight record for crash isolation, a *per-shard*
    restart backoff, and the reroute flag that sends this shard's traffic to
    siblings while a restart is pending.
    """

    def __init__(self, index: int, max_queue: int, backoff: ExponentialBackoff):
        self.index = index
        self.queue: queue.Queue[_Pending | None] = queue.Queue(maxsize=max_queue)
        self.thread: threading.Thread | None = None
        self.gen = 0
        self.heartbeat = time.monotonic()
        self.in_flight: list[_Pending] = []
        self.flight_lock = threading.Lock()
        self.backoff = backoff
        self.restarts = 0
        self.batches = 0
        #: While True, new traffic for this shard is served by siblings.
        self.rerouted = False
        #: Monotonic time at which the watchdog respawns the worker (the
        #: backoff delay is absorbed here so the watchdog never sleeps —
        #: one wedged shard must not delay supervision of the others).
        self.restart_at: float | None = None

    def alive(self) -> bool:
        return self.thread is not None and self.thread.is_alive()

    def snapshot(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "alive": self.alive(),
            "queue_depth": self.queue.qsize(),
            "in_flight": len(self.in_flight),
            "restarts": self.restarts,
            "batches": self.batches,
            "rerouted": self.rerouted,
        }


class LocalizationService:
    """Thread-safe, micro-batched front end over :class:`DelayFaultLocalizer`.

    Exactly one of ``model`` (fixed ad-hoc artifact) or ``registry``
    (versioned artifacts + hot reload of the active version) must be given.
    ``num_workers`` sizes the batch-worker pool; 1 (the default) is the
    original single-worker topology, byte-for-byte.
    """

    def __init__(
        self,
        model: DelayFaultLocalizer | None = None,
        registry: ModelRegistry | None = None,
        engine: RuleEngine | None = None,
        cache_size: int = 1024,
        max_batch: int = 16,
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
        num_workers: int = 1,
    ):
        if (model is None) == (registry is None):
            raise ValueError("pass exactly one of model= or registry=")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.registry = registry
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.num_workers = num_workers
        self.request_timeout_s = request_timeout_s
        self.shed_retry_after_s = shed_retry_after_s
        self.watchdog_interval_s = watchdog_interval_s
        self.stall_timeout_s = stall_timeout_s
        self.drain_deadline_s = drain_deadline_s
        self._engine = engine or default_engine()
        #: Per-scenario contract engines, composed lazily from ``_engine``
        #: (base structural rules + M3D110 tag rule + scenario M3D11x rules).
        self._scenario_engines: dict[str, RuleEngine] = {}
        self._scenario_lock = threading.Lock()
        self._cache = LRUResultCache(capacity=cache_size)
        template = restart_backoff or ExponentialBackoff(base_s=0.05, max_s=2.0)
        # The admission bound is pool-wide: shards split max_queue between
        # them so scaling workers does not silently multiply queueing.
        per_shard_queue = max(1, max_queue // num_workers)
        self._shards: list[_WorkerShard] = [
            _WorkerShard(
                i,
                per_shard_queue,
                ExponentialBackoff(
                    base_s=template.base_s, factor=template.factor, max_s=template.max_s
                ),
            )
            for i in range(num_workers)
        ]
        self._watchdog: threading.Thread | None = None
        self._start_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._stop_requested = threading.Event()
        self._draining = False
        self._closed = False
        self._failed_ref: tuple[str, str] | None = None
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
            "m3d_forward_passes_total", "micro-batched model forward passes executed"
        )
        self.m_graphs = m.counter("m3d_graphs_localized_total", "graphs run through the model")
        self.m_reloads = m.counter("m3d_model_reloads_total", "hot reloads of the active model")
        self.m_reload_failures = m.counter(
            "m3d_model_reload_failures_total", "hot reloads refused (corrupt artifact, I/O error)"
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
            "m3d_worker_restarts_total", "batch worker restarts by the watchdog"
        )
        self.m_drain_failed = m.counter(
            "m3d_drain_failures_total", "requests failed at the drain deadline"
        )
        self.m_rerouted = m.counter(
            "m3d_shard_reroutes_total", "requests rerouted off their home shard to a sibling"
        )
        self.m_queue_depth = m.gauge("m3d_queue_depth", "requests waiting in the batch queues")
        self.m_pool_size = m.gauge("m3d_pool_size", "configured batch workers in the pool")
        self.m_pool_size.set(num_workers)
        self.m_pool_alive = m.gauge("m3d_pool_workers_alive", "batch workers currently alive")
        self.m_breaker_state = m.state_gauge(
            "m3d_breaker_state", "circuit breaker state", states=CircuitBreaker.STATES
        )
        self.m_health_state = m.state_gauge(
            "m3d_health_state", "service health state", states=HealthMonitor.STATES
        )
        self.m_batch_size = m.histogram(
            "m3d_batch_size", "graphs per forward pass", buckets=DEFAULT_SIZE_BUCKETS
        )
        self.m_latency = m.histogram(
            "m3d_request_latency_seconds", "end-to-end localization latency"
        )
        self.m_stage_contract = m.histogram(
            "m3d_stage_contract_seconds", "per-stage latency: m3dlint contract gate"
        )
        self.m_stage_cache = m.histogram(
            "m3d_stage_cache_lookup_seconds", "per-stage latency: digest + result-cache lookup"
        )
        self.m_stage_queue = m.histogram(
            "m3d_stage_queue_wait_seconds", "per-stage latency: admission-queue wait"
        )
        self.m_stage_infer = m.histogram(
            "m3d_stage_inference_seconds", "per-stage latency: batched model forward pass"
        )
        # Per-worker instruments (suffix-named: the registry has no label
        # support) so one sick shard is visible without log archaeology.
        self.m_worker_batches = [
            m.counter(
                f"m3d_worker_batches_total_w{i}", f"forward passes executed by worker {i}"
            )
            for i in range(num_workers)
        ]
        self.m_worker_restart_by = [
            m.counter(
                f"m3d_worker_restarts_total_w{i}", f"watchdog restarts of worker {i}"
            )
            for i in range(num_workers)
        ]
        self.m_worker_depth = [
            m.gauge(f"m3d_worker_queue_depth_w{i}", f"requests queued on shard {i}")
            for i in range(num_workers)
        ]

        self._breaker = breaker or CircuitBreaker()
        self._breaker.set_transition_listener(self._on_breaker_transition)
        self.m_breaker_state.set_state(self._breaker.state)
        self._health = HealthMonitor(
            unhealthy_after=unhealthy_after, on_transition=self._on_health_transition
        )
        self.m_health_state.set_state(self._health.status)

        if registry is not None:
            loaded, manifest = registry.load_active()
            self._active_ref: tuple[str, str] | None = (manifest.name, manifest.version)
            self._install_model(loaded, manifest)
        else:
            assert model is not None
            self._active_ref = None
            self._install_model(model, None)

    # -- pool topology -----------------------------------------------------

    def queue_depth(self) -> int:
        """Requests waiting across every shard queue."""
        return sum(shard.queue.qsize() for shard in self._shards)

    def _shard_for(self, digest: str) -> _WorkerShard:
        """Route a request to its home shard by hash of content digest.

        A shard whose worker is mid-restart (``rerouted``) is skipped and
        the request walks to the next healthy sibling — degraded mode, so a
        single worker death never refuses the whole keyspace. If every
        shard is rerouted the home shard is used anyway; its queue entries
        are failed by the watchdog rather than silently dropped.
        """
        shards = self._shards
        n = len(shards)
        if n == 1:
            return shards[0]
        home = int(digest[:8], 16) % n
        for hop in range(n):
            shard = shards[(home + hop) % n]
            if not shard.rerouted:
                if hop:
                    self.m_rerouted.inc()
                    log.warning(
                        "shard_rerouted", home=home, serving=shard.index, digest=digest[:12]
                    )
                return shard
        return shards[home]

    def _set_queue_gauges(self) -> None:
        total = 0
        for shard in self._shards:
            depth = shard.queue.qsize()
            total += depth
            self.m_worker_depth[shard.index].set(depth)
        self.m_queue_depth.set(total)

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
        self,
        stage: str,
        histogram: Histogram,
        trace_id: str,
        duration_s: float,
        parent: str | None = None,
        **meta: Any,
    ) -> None:
        """One measured pipeline stage: feed the histogram and the trace."""
        histogram.observe(duration_s)
        self.tracer.record(trace_id, stage, duration_s, parent=parent, **meta)

    # -- scenarios ---------------------------------------------------------

    def _engine_for(self, scenario: str) -> RuleEngine:
        """The contract engine gating ``scenario`` payloads, built once.

        Raises :class:`~m3d_fault_loc.scenarios.UnknownScenarioError` for
        unregistered names — the HTTP layer maps it to a structured 422.
        """
        engine = self._scenario_engines.get(scenario)
        if engine is not None:
            return engine
        built = build_scenario_engine(scenario, base_engine=self._engine)
        with self._scenario_lock:
            return self._scenario_engines.setdefault(scenario, built)

    def _count_scenario(self, scenario: str, outcome: str) -> None:
        """Scenario-tagged counters (suffix-named: the metrics registry has
        no label support, and registration by name is idempotent)."""
        self.metrics.counter(
            f"m3d_scenario_{outcome}_total_{scenario}",
            f"localization {outcome} for scenario {scenario}",
        ).inc()

    # -- model identity ----------------------------------------------------

    def _install_model(self, model: DelayFaultLocalizer, manifest: ModelManifest | None) -> None:
        if manifest is not None:
            info = {"source": "registry", **manifest.to_json_dict()}
            prefix = manifest.sha256
        else:
            fingerprint = model.fingerprint()
            info = {
                "source": "adhoc",
                "name": "adhoc",
                "version": fingerprint[:12],
                "sha256": fingerprint,
                "in_dim": model.in_dim,
                "hidden": model.hidden,
                "metadata": dict(model.artifact_meta),
            }
            prefix = fingerprint
        # Single-attribute swap keeps (model, info, cache prefix) consistent
        # for readers on other threads without a lock.
        self._model_state: tuple[DelayFaultLocalizer, dict[str, Any], str] = (model, info, prefix)

    def describe_model(self) -> dict[str, Any]:
        """Identity of the model currently answering requests (``/model``)."""
        return dict(self._model_state[1])

    def cache_stats(self) -> dict[str, Any]:
        stats: dict[str, Any] = self._cache.stats()
        agg = getattr(self._model_state[0], "agg_cache", None)
        if agg is not None:
            stats["agg_operator"] = agg.stats()
        return stats

    def pool_snapshot(self) -> dict[str, Any]:
        """Pool-level state: ``ok`` / ``degraded-k-of-n`` / ``unhealthy``.

        ``state`` degrades as soon as any worker is dead or rerouted —
        capacity is reduced even though every request still gets an answer
        — and is ``unhealthy`` only when no worker is alive at all.
        """
        workers = [shard.snapshot() for shard in self._shards]
        alive = sum(1 for w in workers if w["alive"])
        n = len(workers)
        rerouted = [w["index"] for w in workers if w["rerouted"]]
        if alive == 0:
            state = "unhealthy"
        elif alive < n or rerouted:
            state = f"degraded-{alive}-of-{n}"
        else:
            state = "ok"
        self.m_pool_alive.set(alive)
        return {
            "size": n,
            "alive": alive,
            "state": state,
            "rerouted_shards": rerouted,
            "workers": workers,
        }

    def health_snapshot(self) -> dict[str, Any]:
        """Structured health for ``/healthz``: status machine + components."""
        health = self._health.snapshot()
        status = health.pop("status")
        if self._draining or self._closed:
            status = "draining"
        info = self.describe_model()
        pool = self.pool_snapshot()
        return {
            "status": status,
            "model": {"name": info["name"], "version": info["version"]},
            "worker": {"alive": pool["alive"] == pool["size"], **health},
            "pool": pool,
            "breaker": self._breaker.snapshot(),
            "queue_depth": self.queue_depth(),
            "draining": bool(self._draining or self._closed),
        }

    def _maybe_reload(self) -> None:
        """Swap in the registry's active model if the pointer moved.

        Runs at request entry (before the cache lookup, so a swap can never
        serve a previous model's cached answer) and again in the worker
        between batches. A reload that fails — quarantined artifact, I/O
        error — keeps the current model serving, increments
        ``m3d_model_reload_failures_total``, and is not retried until the
        pointer moves again.
        """
        if self.registry is None:
            return
        try:
            ref = self.registry.active_ref()
        except Exception:
            log.exception("active_pointer_read_failed", keeping=self._active_ref)
            self.m_reload_failures.inc()
            return
        if ref is None or ref == self._active_ref or ref == self._failed_ref:
            return
        with self._reload_lock:
            if ref == self._active_ref or ref == self._failed_ref:
                return
            try:
                model, manifest = self.registry.load(*ref)
            except Exception:
                log.exception("hot_reload_failed", target=ref, keeping=self._active_ref)
                self._failed_ref = ref
                self.m_reload_failures.inc()
                return
            self._install_model(model, manifest)
            self._active_ref = ref
            self._failed_ref = None
            self._cache.clear()
            self.m_reloads.inc()
            log.info("model_reloaded", name=ref[0], version=ref[1])

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        with self._start_lock:
            if self._closed:
                raise RuntimeError("service is closed")
            for shard in self._shards:
                if shard.thread is None:
                    self._spawn_worker(shard)
            if self._watchdog is None and self.watchdog_interval_s is not None:
                self._watchdog = threading.Thread(
                    target=self._watchdog_loop, name="m3d-localize-watchdog", daemon=True
                )
                self._watchdog.start()

    def _spawn_worker(self, shard: _WorkerShard) -> None:
        gen = shard.gen
        shard.heartbeat = time.monotonic()
        shard.restart_at = None
        shard.rerouted = False
        shard.thread = threading.Thread(
            target=self._worker_loop,
            args=(shard, gen),
            name=f"{WORKER_THREAD_PREFIX}{shard.index}-g{gen}",
            daemon=True,
        )
        shard.thread.start()

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
            busy = False
            for shard in self._shards:
                with shard.flight_lock:
                    busy = busy or bool(shard.in_flight)
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
            shards = list(self._shards)
            watchdog = self._watchdog
        if any(shard.alive() for shard in shards):
            self.await_drain(self.drain_deadline_s)
        self._stop_requested.set()
        for shard in shards:
            if shard.thread is not None:
                try:
                    shard.queue.put_nowait(None)
                except queue.Full:
                    pass
        for shard in shards:
            if shard.thread is not None:
                shard.thread.join(timeout=5.0)
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
        """Gate, cache-check, and (on a miss) batch one graph through the pool.

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
        and :class:`DeadlineExceededError` past the deadline — each a
        structured rejection rather than a hang or a wrong answer.
        """
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        if self._closed:
            raise RuntimeError("service is closed")
        if self._draining:
            raise ServiceDrainingError("draining")
        scenario_name = get_scenario(scenario or DEFAULT_SCENARIO).name
        self.start()
        started = time.perf_counter()
        deadline = Deadline.after(timeout_s if timeout_s is not None else self.request_timeout_s)
        trace_id = current_trace_id() or new_trace_id()
        self.m_requests.inc()
        self._count_scenario(scenario_name, "requests")
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
        ``queue_wait`` / ``batch_infer`` spans are children of
        ``await_result`` (tagged ``parent``), so summing the top level
        reconstructs the request total while the children explain where the
        await went.
        """
        t0 = time.perf_counter()
        engine = self._engine_for(scenario)
        try:
            warnings = gate_graph(graph, engine)
        except GraphContractError:
            self.m_rejections.inc()
            self._count_scenario(scenario, "rejections")
            self._observe_stage(
                "contract_gate",
                self.m_stage_contract,
                trace_id,
                time.perf_counter() - t0,
                scenario=scenario,
            )
            raise
        self._observe_stage(
            "contract_gate",
            self.m_stage_contract,
            trace_id,
            time.perf_counter() - t0,
            scenario=scenario,
        )

        t0 = time.perf_counter()
        self._maybe_reload()
        digest = graph_digest(graph)
        _, _, prefix = self._model_state
        key = f"{prefix}:{scenario}:{top_k}:{digest}"
        hit = self._cache.get(key)
        self._observe_stage(
            "cache_lookup",
            self.m_stage_cache,
            trace_id,
            time.perf_counter() - t0,
            hit=hit is not None,
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
        shard = self._shard_for(digest)
        try:
            shard.queue.put_nowait(pending)
        except queue.Full:
            self.m_shed.inc()
            raise LoadSheddedError(self.max_queue, self._shed_retry_after_s()) from None
        self._set_queue_gauges()
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

    def _worker_loop(self, shard: _WorkerShard, gen: int) -> None:
        while True:
            try:
                if shard.gen != gen:
                    return  # superseded by a watchdog restart
                shard.heartbeat = time.monotonic()
                try:
                    item = shard.queue.get(timeout=_IDLE_POLL_S)
                except queue.Empty:
                    if self._stop_requested.is_set():
                        return
                    continue
                if item is None:
                    return
                batch = self._collect_batch(shard, item)
                self._set_queue_gauges()
                live = self._drop_expired(batch)
                if not live:
                    continue
                dequeued = time.perf_counter()
                for p in live:
                    self._observe_stage(
                        "queue_wait",
                        self.m_stage_queue,
                        p.trace_id,
                        max(0.0, dequeued - p.enqueued_at),
                        parent="await_result",
                        worker=shard.index,
                    )
                    # Stamp the shard on the trace meta too, so stitched
                    # waterfalls show which pool worker ran the batch
                    # without digging through span metadata.
                    self.tracer.annotate(p.trace_id, worker=shard.index)
                # Gen-guarded: a worker superseded mid-batch by the watchdog
                # must not clobber its replacement's in-flight record.
                with shard.flight_lock:
                    if shard.gen == gen:
                        shard.in_flight = list(live)
                self._maybe_reload()
                self._run_batch(shard, live)
                with shard.flight_lock:
                    if shard.gen == gen:
                        shard.in_flight = []
            except Exception:
                # A worker that dies silently strands every queued future;
                # anything short of thread death must keep the loop alive.
                log.exception("worker_iteration_failed", worker=shard.index)

    def _collect_batch(self, shard: _WorkerShard, first: _Pending) -> list[_Pending]:
        """Dispatch on idle: take only what is already queued behind ``first``.

        Never waits for a partner, so a lone miss goes straight to the
        forward pass; under load, requests that queued while the worker was
        busy still ride together (up to ``max_batch``).
        """
        batch = [first]
        while len(batch) < self.max_batch:
            try:
                nxt = shard.queue.get_nowait()
            except queue.Empty:
                break
            if nxt is None:
                self._stop_requested.set()
                break
            batch.append(nxt)
        return batch

    def _drop_expired(self, batch: list[_Pending]) -> list[_Pending]:
        """Fail already-expired requests instead of spending a forward pass."""
        live: list[_Pending] = []
        for p in batch:
            if p.deadline.expired():
                p.fail(DeadlineExceededError(p.deadline.budget_s, where="batch queue"))
            else:
                live.append(p)
        return live

    def _run_batch(self, shard: _WorkerShard, batch: list[_Pending]) -> None:
        model, info, prefix = self._model_state
        t0 = time.perf_counter()
        try:
            scores_per_graph = model.node_scores_batch([p.graph for p in batch])
        except Exception as exc:
            self._breaker.record_failure()
            for p in batch:
                log.error(
                    "batch_failed",
                    trace_id=p.trace_id,
                    error=type(exc).__name__,
                    batch=len(batch),
                    worker=shard.index,
                )
                p.fail(exc)
            return
        infer_s = time.perf_counter() - t0
        self.m_stage_infer.observe(infer_s)
        for p in batch:
            self.tracer.record(
                p.trace_id,
                "batch_infer",
                infer_s,
                parent="await_result",
                batch=len(batch),
                worker=shard.index,
            )
        self._breaker.record_success()
        self._health.record_success()
        shard.backoff.reset()
        shard.batches += 1
        self.m_worker_batches[shard.index].inc()
        self.m_forward_passes.inc()
        self.m_batch_size.observe(len(batch))
        self.m_graphs.inc(len(batch))
        for p, scores in zip(batch, scores_per_graph, strict=True):
            result = self._build_result(p, scores, info)
            self._cache.put(f"{prefix}:{p.scenario}:{p.top_k}:{p.digest}", result)
            p.complete(result)

    # -- supervision -------------------------------------------------------

    def _watchdog_loop(self) -> None:
        interval = self.watchdog_interval_s or 0.2
        while True:
            try:
                if self._stop_requested.wait(interval):
                    return
                now = time.monotonic()
                for shard in self._shards:
                    self._supervise(shard, now)
                self.m_pool_alive.set(sum(1 for s in self._shards if s.alive()))
            except Exception:
                log.exception("watchdog_iteration_failed")

    def _supervise(self, shard: _WorkerShard, now: float) -> None:
        """One watchdog pass over one shard: respawn if due, else health-check.

        The restart backoff is a *scheduled time* (``shard.restart_at``),
        never a sleep — the watchdog must keep supervising healthy siblings
        while one shard waits out its backoff. Crash isolation: only the
        dead shard's in-flight and queued futures are failed; traffic for
        the shard reroutes to siblings until the replacement worker is up.
        """
        if shard.restart_at is not None:
            if now >= shard.restart_at:
                with self._start_lock:
                    if not self._closed:
                        self._spawn_worker(shard)
            return
        worker = shard.thread
        if worker is None:
            return
        dead = not worker.is_alive()
        stalled = not dead and self._stalled(shard)
        if not (dead or stalled):
            return
        reason = "batch worker thread died" if dead else "batch worker stalled"
        log.error("watchdog_restart", worker=shard.index, reason=reason)
        self._health.record_worker_failure(f"worker {shard.index}: {reason}")
        self.m_worker_restarts.inc()
        self.m_worker_restart_by[shard.index].inc()
        shard.restarts += 1
        shard.gen += 1  # a stalled-but-alive worker exits when it unblocks
        self._fail_shard(shard, WorkerCrashedError(f"{reason}; failed by watchdog"))
        # Reroute only makes sense with siblings; a 1-worker pool just waits.
        shard.rerouted = len(self._shards) > 1
        shard.restart_at = now + shard.backoff.next_delay()

    def _stalled(self, shard: _WorkerShard) -> bool:
        if self.stall_timeout_s is None:
            return False
        with shard.flight_lock:
            busy = bool(shard.in_flight)
        busy = busy or shard.queue.qsize() > 0
        return busy and (time.monotonic() - shard.heartbeat) > self.stall_timeout_s

    def _fail_shard(self, shard: _WorkerShard, exc: BaseException) -> int:
        """Fail one shard's stranded requests (in-flight + queued).

        Each victim is logged with *its own* trace id — the watchdog and the
        drain path run far from the request's thread, so the ambient context
        cannot name the casualties; the pending record can.
        """
        with shard.flight_lock:
            stranded = list(shard.in_flight)
            shard.in_flight = []
        while True:
            try:
                item = shard.queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                stranded.append(item)
        self.m_worker_depth[shard.index].set(0)
        failed = 0
        for p in stranded:
            if p.fail(exc):
                failed += 1
                log.warning(
                    "pending_request_failed",
                    trace_id=p.trace_id,
                    error=type(exc).__name__,
                    detail=str(exc),
                    worker=shard.index,
                )
        return failed

    def _fail_pending(self, exc: BaseException) -> int:
        """Fail every stranded request across the whole pool; returns count."""
        failed = 0
        for shard in self._shards:
            failed += self._fail_shard(shard, exc)
        self.m_queue_depth.set(0)
        return failed

    @staticmethod
    def _build_result(
        pending: _Pending, scores: np.ndarray, info: dict[str, Any]
    ) -> LocalizationResult:
        graph = pending.graph
        order = np.argsort(scores)[::-1][: pending.top_k]
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
