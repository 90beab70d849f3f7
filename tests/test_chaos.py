"""Chaos suite: deterministic fault injection against the serving stack.

Every acceptance behavior of the resilience layer is driven by a shim from
``m3d_fault_loc.testing.chaos`` — never by sleeping and hoping:

- a request past its deadline gets a structured failure (HTTP 504) without
  blocking the worker, and expired queue entries are dropped unscored;
- a full admission queue sheds with 429 + ``Retry-After`` and a counter;
  the hint is queue-depth derived and jittered within ±20 %;
- a killed batch worker fails queued futures fast, flips ``/healthz`` to
  ``degraded``, restarts, and serves again (recovery back to ``ok``); a
  request admitted while the restart backs off waits for the replacement;
- consecutive batch failures trip the circuit breaker; a half-open probe
  closes it once the model recovers;
- a corrupt artifact is quarantined and can never become ACTIVE; a corrupt
  hot-reload target keeps the old model serving;
- draining completes queued work within its deadline, fails leftovers
  deterministically (also mid hot reload), and SIGTERM drives the whole
  sequence end-to-end;
- the serve CLI refuses an invalid config with one ``config error:`` line
  and exit 2, never a traceback or a server that fails every request.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from m3d_fault_loc.data.synthetic import synthesize_fault_dataset
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.serve.registry import ModelRegistry, ModelRegistryError
from m3d_fault_loc.serve.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    ExponentialBackoff,
    LoadSheddedError,
    ServiceDrainingError,
    WorkerCrashedError,
    jittered,
)
from m3d_fault_loc.serve.server import create_server
from m3d_fault_loc.serve.service import LocalizationService
from m3d_fault_loc.testing.chaos import (
    MALFORMED_PARAM_KEYS,
    CrashOnNthBatchModel,
    FlakyIO,
    SlowBatchModel,
    corrupt_artifact,
    malformed_model,
)


@pytest.fixture(scope="module")
def graphs():
    rng = np.random.default_rng(7)
    return synthesize_fault_dataset(rng, n_graphs=8, n_gates=12, n_inputs=3)


def base_model():
    return DelayFaultLocalizer(hidden=8, seed=2)


def make_service(model, **kwargs):
    kwargs.setdefault("watchdog_interval_s", 0.03)
    kwargs.setdefault(
        "restart_backoff", ExponentialBackoff(base_s=0.01, factor=2.0, max_s=0.05)
    )
    kwargs.setdefault("drain_deadline_s", 2.0)
    return LocalizationService(model=model, **kwargs)


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def get_health(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    conn.request("GET", "/healthz")
    response = conn.getresponse()
    payload = json.loads(response.read())
    conn.close()
    return response.status, payload


def localize_in_thread(service, graph, results, key, **kwargs):
    def call():
        try:
            results[key] = service.localize(graph, **kwargs)
        except Exception as exc:  # captured for assertions
            results[key] = exc

    t = threading.Thread(target=call, daemon=True)
    t.start()
    return t


# -- deadlines -------------------------------------------------------------


def test_deadline_exceeded_is_structured_and_fast(graphs):
    model = SlowBatchModel(base_model(), delay_s=0.4, slow_calls=1)
    with make_service(model) as service:
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError) as exc_info:
            service.localize(graphs[0], timeout_s=0.05)
        elapsed = time.monotonic() - started
        assert elapsed < 0.35, "caller must get the 504 before the slow batch finishes"
        assert exc_info.value.deadline_s == 0.05
        assert service.m_deadline.value == 1
        # The worker is not wedged: once the slow pass ends, service resumes.
        result = service.localize(graphs[1], timeout_s=5.0)
        assert result.num_nodes == graphs[1].num_nodes


def test_expired_queue_entries_are_dropped_without_a_forward_pass(graphs):
    model = SlowBatchModel(base_model(), delay_s=0.25, slow_calls=1)
    results: dict[str, object] = {}
    with make_service(model) as service:
        t_a = localize_in_thread(service, graphs[0], results, "a", timeout_s=5.0)
        assert wait_until(lambda: model.batch_calls >= 1), "first request must reach the model"
        t_b = localize_in_thread(service, graphs[1], results, "b", timeout_s=0.05)
        t_a.join(timeout=5)
        t_b.join(timeout=5)
        assert wait_until(lambda: service.queue_depth() == 0)
        time.sleep(0.1)  # give the worker a chance to (wrongly) score graph b
        assert isinstance(results["b"], DeadlineExceededError)
        assert not isinstance(results["a"], Exception)
        assert model.batch_calls == 1, "the expired request must never be scored"


def test_http_deadline_maps_to_504(graphs):
    model = SlowBatchModel(base_model(), delay_s=0.4, slow_calls=1)
    service = make_service(model)
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        body = json.dumps({"graph": graphs[0].to_json_dict(), "deadline_ms": 40})
        conn.request("POST", "/localize", body=body)
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 504
        assert payload["error"] == "deadline_exceeded"
        assert payload["deadline_ms"] == 40

        # A non-positive deadline is rejected up front with a 400.
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        body = json.dumps({"graph": graphs[0].to_json_dict(), "deadline_ms": -5})
        conn.request("POST", "/localize", body=body)
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "deadline_ms" in payload["detail"]
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


# -- load shedding ---------------------------------------------------------


def test_full_queue_sheds_with_429_and_counter(graphs):
    model = SlowBatchModel(base_model(), delay_s=0.3, slow_calls=2)
    results: dict[str, object] = {}
    service = make_service(model, max_queue=1, max_batch=1)
    with service:
        t_a = localize_in_thread(service, graphs[0], results, "a", timeout_s=5.0)
        assert wait_until(lambda: model.batch_calls >= 1), "worker must be busy"
        t_b = localize_in_thread(service, graphs[1], results, "b", timeout_s=5.0)
        assert wait_until(lambda: service.queue_depth() == 1), "queue must be full"
        with pytest.raises(LoadSheddedError) as exc_info:
            service.localize(graphs[2], timeout_s=5.0)
        assert exc_info.value.queue_limit == 1
        assert service.m_shed.value == 1
        t_a.join(timeout=5)
        t_b.join(timeout=5)
        assert not isinstance(results["a"], Exception)
        assert not isinstance(results["b"], Exception)


def test_http_shed_maps_to_429_with_retry_after(graphs):
    model = SlowBatchModel(base_model(), delay_s=0.4, slow_calls=2)
    service = make_service(model, max_queue=1, max_batch=1)
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        results: dict[str, object] = {}
        localize_in_thread(service, graphs[0], results, "a", timeout_s=5.0)
        assert wait_until(lambda: model.batch_calls >= 1)
        localize_in_thread(service, graphs[1], results, "b", timeout_s=5.0)
        assert wait_until(lambda: service.queue_depth() == 1)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("POST", "/localize", body=json.dumps({"graph": graphs[2].to_json_dict()}))
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 429
        assert payload["error"] == "load_shed"
        assert int(response.getheader("Retry-After")) >= 1
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def test_jittered_bounds_and_validation():
    values = [jittered(2.0) for _ in range(200)]
    assert all(1.6 <= v <= 2.4 for v in values), "±20% bounds"
    assert len(set(values)) > 1, "jitter must actually vary"
    assert jittered(0.0) == 0.0
    with pytest.raises(ValueError):
        jittered(-1.0)
    with pytest.raises(ValueError):
        jittered(1.0, fraction=1.0)


def test_shed_retry_after_scales_with_queue_depth(graphs):
    model = SlowBatchModel(base_model(), delay_s=0.5, slow_calls=None)
    with make_service(
        model, cache_size=1, max_queue=2, max_batch=1, shed_retry_after_s=1.0
    ) as service:
        results: dict[str, object] = {}
        threads = [
            localize_in_thread(service, g, results, i, timeout_s=5.0)
            for i, g in enumerate(graphs[:3])
        ]
        # One request occupies the worker, two fill max_queue=2; the next
        # must shed with a depth-derived, jittered hint: base 1.0s scaled by
        # (1 + depth/max_queue) ∈ [1, 2], jittered ±20% → [0.8, 2.4].
        assert wait_until(lambda: service.queue_depth() >= 2, timeout=3.0)
        hints = []
        for _ in range(5):
            try:
                service.localize(graphs[3], timeout_s=0.05)
            except LoadSheddedError as exc:
                hints.append(exc.retry_after_s)
            except Exception:
                pass
        assert hints, "a full queue must shed"
        assert all(0.8 <= h <= 2.4 for h in hints), hints
        # Depth 2 of 2 → scale factor 2.0 → lower bound with jitter is 1.6.
        assert max(hints) >= 1.0
        for t in threads:
            t.join(timeout=5.0)


# -- worker supervision ----------------------------------------------------


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_worker_kill_fails_futures_degrades_health_and_recovers(graphs):
    # Slow-then-kill: the worker sleeps 0.15s mid-batch, then dies hard,
    # stranding one in-flight and one queued request for the watchdog.
    model = SlowBatchModel(
        CrashOnNthBatchModel(base_model(), crash_on=1, crash_count=1, kill_worker=True),
        delay_s=0.15,
        slow_calls=1,
    )
    results: dict[str, object] = {}
    with make_service(model) as service:
        t_a = localize_in_thread(service, graphs[0], results, "a", timeout_s=10.0)
        assert wait_until(lambda: model.batch_calls >= 1), "first request must be in flight"
        started = time.monotonic()
        t_b = localize_in_thread(service, graphs[1], results, "b", timeout_s=10.0)
        t_a.join(timeout=5)
        t_b.join(timeout=5)
        elapsed = time.monotonic() - started
        assert isinstance(results["a"], WorkerCrashedError)
        assert isinstance(results["b"], WorkerCrashedError)
        assert elapsed < 5.0, "stranded futures must fail fast, not wait out their deadline"
        assert service.m_worker_restarts.value >= 1
        assert wait_until(lambda: service.health_snapshot()["status"] == "degraded")

        # The restarted worker serves subsequent requests and health recovers.
        result = service.localize(graphs[2], timeout_s=5.0)
        assert result.num_nodes == graphs[2].num_nodes
        assert service.health_snapshot()["status"] == "ok"
        assert service.metrics.to_json_dict()["m3d_health_state"]["state"] == "ok"


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_healthz_reflects_degraded_and_recovery_over_http(graphs):
    model = CrashOnNthBatchModel(base_model(), crash_on=1, crash_count=1, kill_worker=True)
    service = make_service(model)
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    try:
        status, health = get_health(server.port)
        assert status == 200 and health["status"] == "ok"
        with pytest.raises(WorkerCrashedError):
            service.localize(graphs[0], timeout_s=10.0)
        status, health = get_health(server.port)
        assert status == 200, "degraded still serves (reduced capacity, not dead)"
        assert health["status"] == "degraded"
        assert health["worker"]["worker_restarts"] >= 1
        # Recovery: the restarted worker scores a graph, health flips back.
        assert wait_until(
            lambda: not isinstance(
                service_try(service, graphs[1]), Exception
            )
        )
        status, health = get_health(server.port)
        assert status == 200 and health["status"] == "ok"
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_request_admitted_during_restart_backoff_is_served_by_replacement(graphs):
    model = CrashOnNthBatchModel(base_model(), crash_on=1, crash_count=1, kill_worker=True)
    service = make_service(
        model, restart_backoff=ExponentialBackoff(base_s=0.3, factor=2.0, max_s=0.3)
    )
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    try:
        with pytest.raises(WorkerCrashedError):
            service.localize(graphs[0], timeout_s=5.0)
        # The restart is backing off: no worker is alive to take new work.
        status, health = get_health(server.port)
        assert status == 200 and health["status"] == "degraded"
        assert health["worker"]["alive"] is False

        results: dict[str, object] = {}
        t = localize_in_thread(service, graphs[1], results, "late", timeout_s=5.0)
        assert wait_until(lambda: service.queue_depth() == 1, timeout=1.0)
        assert "late" not in results, "a request admitted mid-backoff is queued, not failed"
        status, health = get_health(server.port)
        assert health["status"] == "degraded"

        t.join(timeout=5.0)
        assert not isinstance(results["late"], Exception), results["late"]
        assert results["late"].num_nodes == graphs[1].num_nodes
        assert model.batch_calls == 2, "the replacement worker scored the late request"
        assert service.m_worker_restarts.value == 1
        status, health = get_health(server.port)
        assert status == 200 and health["status"] == "ok"
        assert health["worker"]["alive"] is True
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def service_try(service, graph):
    try:
        return service.localize(graph, timeout_s=2.0)
    except Exception as exc:
        return exc


def test_stalled_worker_is_superseded(graphs):
    model = SlowBatchModel(base_model(), delay_s=0.6, slow_calls=1)
    results: dict[str, object] = {}
    with make_service(model, stall_timeout_s=0.1) as service:
        started = time.monotonic()
        t_a = localize_in_thread(service, graphs[0], results, "a", timeout_s=10.0)
        t_a.join(timeout=5)
        elapsed = time.monotonic() - started
        assert isinstance(results["a"], WorkerCrashedError)
        assert elapsed < 0.55, "stall detection must beat the wedged batch"
        assert service.m_worker_restarts.value >= 1
        # Replacement worker picks up new requests once the old batch drains.
        assert wait_until(
            lambda: not isinstance(service_try(service, graphs[1]), Exception), timeout=5.0
        )


# -- circuit breaker -------------------------------------------------------


def test_breaker_trips_sheds_then_probes_closed(graphs):
    model = CrashOnNthBatchModel(base_model(), crash_on=1, crash_count=2)
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=0.15)
    with make_service(model, breaker=breaker) as service:
        for i in range(2):
            with pytest.raises(RuntimeError, match="injected batch failure"):
                service.localize(graphs[i], timeout_s=5.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert service.m_breaker_trips.value == 1
        assert service.metrics.to_json_dict()["m3d_breaker_state"]["state"] == "open"

        with pytest.raises(CircuitOpenError):
            service.localize(graphs[2], timeout_s=5.0)
        assert service.m_breaker_rejections.value == 1
        assert model.batch_calls == 2, "an open breaker must not reach the model"

        time.sleep(0.2)  # reset timeout elapses -> half-open probe allowed
        result = service.localize(graphs[3], timeout_s=5.0)
        assert result.num_nodes == graphs[3].num_nodes
        assert breaker.state == CircuitBreaker.CLOSED
        assert service.metrics.to_json_dict()["m3d_breaker_state"]["state"] == "closed"


# -- registry: quarantine + retry ------------------------------------------


def test_corrupt_artifact_is_quarantined_and_never_activated(tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    v1 = registry.publish(DelayFaultLocalizer(hidden=4, seed=0))
    v2 = registry.publish(DelayFaultLocalizer(hidden=4, seed=1), activate=False)
    corrupt_artifact(registry, v2.name, v2.version)

    with pytest.raises(ModelRegistryError, match="checksum mismatch"):
        registry.activate(v2.name, v2.version)

    assert registry.active_ref() == (v1.name, v1.version), "ACTIVE pointer unchanged"
    assert registry.list_versions(v2.name) == [v1.version], "corrupt version removed"
    assert registry.list_quarantined() == [(v2.name, v2.version)]
    assert (tmp_path / "registry" / "quarantine" / v2.name / v2.version).is_dir()
    # The quarantined version cannot be re-activated: it no longer exists.
    with pytest.raises(ModelRegistryError, match="no such model version"):
        registry.activate(v2.name, v2.version)


def test_corrupt_hot_reload_target_keeps_old_model_serving(tmp_path, graphs):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(DelayFaultLocalizer(hidden=8, seed=0))
    with LocalizationService(
        registry=registry, watchdog_interval_s=0.03
    ) as service:
        assert service.localize(graphs[0]).model_version == "v0001"

        v2 = registry.publish(DelayFaultLocalizer(hidden=8, seed=9))  # activates v0002
        corrupt_artifact(registry, v2.name, v2.version)
        result = service.localize(graphs[1])
        assert result.model_version == "v0001", "corrupt reload target must be refused"
        assert service.m_reload_failures.value >= 1
        assert registry.list_quarantined() == [(v2.name, v2.version)]

        failures_after = service.m_reload_failures.value
        service.localize(graphs[2])
        assert service.m_reload_failures.value == failures_after, (
            "a failed ref is not re-tried until the pointer moves"
        )

        # Explicit version: the quarantined v0002 left models/, so auto
        # numbering would reuse its name — which the failed-ref memo ignores.
        registry.publish(DelayFaultLocalizer(hidden=8, seed=42), version="v0003")
        assert service.localize(graphs[3]).model_version == "v0003"


@pytest.mark.parametrize("kind", MALFORMED_PARAM_KEYS)
def test_malformed_hot_reload_target_keeps_old_model_serving(tmp_path, graphs, kind):
    """The artifact's checksum is intact; load-time validation refuses it."""
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(DelayFaultLocalizer(hidden=8, seed=0))
    with LocalizationService(registry=registry) as service:
        assert service.localize(graphs[0]).model_version == "v0001"
        failures = service.m_reload_failures.value

        registry.publish(malformed_model(kind, hidden=8, seed=9))  # activates v0002
        result = service.localize(graphs[1])
        assert result.model_version == "v0001", "a malformed reload target must be refused"
        assert service.m_reload_failures.value == failures + 1


def run_serve_cli(artifact, *args):
    """Run ``m3d-serve --model artifact --port 0 *args`` to completion."""
    src_dir = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src_dir}{os.pathsep}{env.get('PYTHONPATH', '')}"
    return subprocess.run(
        [
            sys.executable, "-m", "m3d_fault_loc.cli.serve",
            "--model", str(artifact), "--port", "0", *args,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize("kind", ["short_b1", "missing_b3"])
def test_serve_cli_refuses_malformed_model(tmp_path, kind):
    artifact = malformed_model(kind).save(tmp_path / "bad.npz")
    proc = run_serve_cli(artifact)
    assert proc.returncode == 2
    assert "model error: " in proc.stderr
    assert f"'{MALFORMED_PARAM_KEYS[kind]}'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_serve_cli_accepts_only_one_worker(tmp_path):
    artifact = base_model().save(tmp_path / "model.npz")
    proc = run_serve_cli(artifact, "--workers", "2")
    assert proc.returncode == 2
    assert "--workers: invalid choice" in proc.stderr
    assert "serving on" not in proc.stdout


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--request-timeout-s", "0"),
        ("--request-timeout-s", "-1"),
        ("--drain-deadline-s", "0"),
        ("--drain-deadline-s", "-1"),
        ("--max-batch", "0"),
        ("--max-queue", "0"),
        ("--cache-size", "0"),
        ("--max-body-bytes", "0"),
    ],
)
def test_serve_cli_refuses_invalid_config(tmp_path, flag, value):
    artifact = base_model().save(tmp_path / "model.npz")
    proc = run_serve_cli(artifact, flag, value)
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if line.startswith("config error: ")]
    assert len(errors) == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "serving on" not in proc.stdout


def test_registry_retries_transient_io(tmp_path):
    registry = ModelRegistry(tmp_path / "registry", io_attempts=3, io_backoff_s=0.001)
    registry.publish(DelayFaultLocalizer(hidden=4, seed=0))
    flaky = FlakyIO(failures=2)
    registry.io_fault_hook = flaky
    model, manifest = registry.load_active()
    assert manifest.version == "v0001" and model.hidden == 4
    assert flaky.calls >= 3, "the first two attempts must have failed and been retried"


def test_registry_gives_up_after_persistent_io_failures(tmp_path):
    registry = ModelRegistry(tmp_path / "registry", io_attempts=2, io_backoff_s=0.001)
    registry.publish(DelayFaultLocalizer(hidden=4, seed=0))
    registry.io_fault_hook = FlakyIO(failures=100)
    with pytest.raises(OSError, match="injected transient"):
        registry.load_active()


# -- graceful drain --------------------------------------------------------


def test_drain_completes_queued_work_and_stops_admission(graphs):
    model = SlowBatchModel(base_model(), delay_s=0.05)
    results: dict[str, object] = {}
    service = make_service(model, max_batch=1)
    service.start()
    threads = [
        localize_in_thread(service, graphs[i], results, f"r{i}", timeout_s=10.0)
        for i in range(3)
    ]
    assert wait_until(lambda: service.m_requests.value >= 3), "all three must be admitted"
    service.begin_drain()
    with pytest.raises(ServiceDrainingError):
        service.localize(graphs[3])
    stats = service.await_drain(5.0)
    for t in threads:
        t.join(timeout=5)
    completed = [r for r in results.values() if not isinstance(r, Exception)]
    failed = [r for r in results.values() if isinstance(r, ServiceDrainingError)]
    assert len(completed) + len(failed) == 3, "every request resolves: completed or drained"
    assert stats["failed"] == len(failed)
    service.close()


def test_drain_deadline_fails_leftovers_deterministically(graphs):
    model = SlowBatchModel(base_model(), delay_s=0.4)
    results: dict[str, object] = {}
    service = make_service(model, max_batch=1)
    with service:
        t_a = localize_in_thread(service, graphs[0], results, "a", timeout_s=10.0)
        assert wait_until(lambda: model.batch_calls >= 1)
        t_b = localize_in_thread(service, graphs[1], results, "b", timeout_s=10.0)
        assert wait_until(lambda: service.queue_depth() == 1)
        stats = service.drain(0.05)
        assert stats["failed"] >= 1
        assert service.m_drain_failed.value >= 1
        t_a.join(timeout=5)
        t_b.join(timeout=5)
        assert isinstance(results["b"], ServiceDrainingError), (
            "the queued leftover fails with a structured drain error"
        )


def test_drain_during_active_pointer_swap_is_clean(tmp_path, graphs):
    """SIGTERM mid-reload: no half-loaded model served, no stranded future.

    A writer thread flips the registry ACTIVE pointer in a tight loop while
    clients localize and the service drains. Every future must resolve —
    to a result carrying a *complete* model identity (name/version pair
    that was actually published) or to a structured draining error — and
    the service must end up draining with an empty pipeline.
    """
    registry = ModelRegistry(tmp_path / "registry")
    v1 = registry.publish(DelayFaultLocalizer(hidden=4, seed=0))
    v2 = registry.publish(DelayFaultLocalizer(hidden=4, seed=1), activate=False)
    published = {(v1.name, v1.version), (v2.name, v2.version)}

    service = LocalizationService(
        registry=registry, watchdog_interval_s=0.03, drain_deadline_s=2.0
    )
    service.start()
    stop_flipping = threading.Event()

    def flip():
        flip_to = [(v2.name, v2.version), (v1.name, v1.version)]
        i = 0
        while not stop_flipping.is_set():
            name, version = flip_to[i % 2]
            registry.activate(name, version)
            i += 1

    flipper = threading.Thread(target=flip, daemon=True)
    flipper.start()

    results: dict[int, object] = {}
    threads = []
    for i in range(24):
        threads.append(
            localize_in_thread(service, graphs[i % len(graphs)], results, i, timeout_s=5.0)
        )
        if i == 12:
            service.begin_drain()  # SIGTERM lands mid-traffic, mid-swap

    report = service.await_drain(2.0)
    stop_flipping.set()
    flipper.join(timeout=5.0)
    for t in threads:
        t.join(timeout=5.0)

    assert len(results) == 24, "every request must resolve during drain"
    for key, outcome in results.items():
        if isinstance(outcome, Exception):
            assert isinstance(outcome, (ServiceDrainingError, WorkerCrashedError)), (
                key,
                outcome,
            )
        else:
            # Never a half-loaded identity: the (name, version) pair must be
            # one that was actually published, never a mix of two swaps.
            assert (outcome.model_name, outcome.model_version) in published
    assert service.queue_depth() == 0
    assert report["failed"] >= 0
    assert service.health_snapshot()["status"] == "draining"
    service.close()


def test_healthz_reports_draining(graphs):
    service = make_service(base_model())
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        service.begin_drain()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 503
        assert payload["status"] == "draining"
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


# -- SIGTERM end-to-end ----------------------------------------------------


@pytest.mark.skipif(os.name != "posix", reason="POSIX signals required")
def test_sigterm_drains_and_exits_zero(tmp_path, graphs):
    artifact = DelayFaultLocalizer(hidden=8, seed=3).save(tmp_path / "model.npz")
    src_dir = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src_dir}{os.pathsep}{env.get('PYTHONPATH', '')}"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "m3d_fault_loc.cli.serve",
            "--model", str(artifact), "--port", "0",
            "--drain-deadline-s", "5",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        port = None
        assert proc.stdout is not None
        for _ in range(20):
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving on http://"):
                port = int(line.rsplit(":", 1)[1])
                break
        assert port is not None, "server must print its ephemeral port"

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("POST", "/localize", body=json.dumps({"graph": graphs[0].to_json_dict()}))
        assert conn.getresponse().status == 200
        conn.close()

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=15)
        assert rc == 0, "graceful shutdown must exit 0"
        tail = proc.stdout.read()
        assert "draining" in tail and "drained; exiting" in tail

        with pytest.raises(OSError):
            check = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
            check.request("GET", "/healthz")
            check.getresponse()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=5)


# -- request-body bounds ---------------------------------------------------


def test_oversized_body_gets_structured_413(graphs):
    service = make_service(base_model())
    server = create_server(service, host="127.0.0.1", port=0, max_body_bytes=512)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        big = json.dumps({"graph": graphs[0].to_json_dict()})
        assert len(big) > 512
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("POST", "/localize", body=big)
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()  # body was never read; the connection cannot be reused
        assert response.status == 413
        assert payload["error"] == "payload_too_large"
        assert payload["limit_bytes"] == 512

        # An unreadable graph under the limit is a 400, not a hang.
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("POST", "/localize", body=json.dumps({"graph": {"tiny": 1}}))
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert payload["error"] == "bad_request"
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)
