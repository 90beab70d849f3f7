"""Deterministic fault-injection harness for the serving stack.

Every shim here injects *one* failure mode, at a *chosen* point, a *chosen*
number of times — chaos tests must be reproducible, never probabilistic:

- :class:`CrashOnNthForwardModel` — raises on the Nth forward pass;
  with ``kill_worker=True`` it raises :class:`WorkerKilled` (a
  ``BaseException``) that escapes the worker's broad exception guard and
  takes the whole worker thread down, exercising the watchdog.
- :class:`SlowForwardModel` — sleeps before each forward pass to exercise
  deadlines, queue back-pressure, and stall detection.
- :func:`corrupt_artifact` — tampers with a published registry artifact on
  disk so checksum verification (and quarantine) can be exercised.
- :func:`malformed_model` — a model whose saved artifact has an intact
  checksum but one broken parameter, so load-time validation (and a
  refused hot reload) can be exercised.
- :class:`UnreadableArtifact` — a publishable stand-in whose saved file is
  no ``.npz`` at all (a truncated zip, random bytes), so load-time reading
  (and a refused hot reload) can be exercised.
- :class:`FlakyIO` — a callable for ``ModelRegistry.io_fault_hook`` that
  raises for the first N I/O attempts, exercising retry-with-backoff.

Network/replica-level faults for the router tier:

- :class:`StubReplica` — a programmable in-process HTTP replica with
  per-request fault scripting (``fail_next``/``hang_next``/``drop_next``)
  and a ``partitioned`` switch that refuses connections outright.
- :func:`slow_loris` — opens a raw socket to a server and dribbles an
  incomplete request, holding the connection open (a slot-exhaustion probe
  against threaded servers).
"""

from __future__ import annotations

import socket
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.serve.http import TRACE_HEADER, JSONHandler, ThreadedHTTPServer
from m3d_fault_loc.serve.registry import ModelRegistry


class WorkerKilled(BaseException):
    """Simulated hard death of the service's worker thread.

    Derives from ``BaseException`` so it escapes the worker loop's broad
    ``except Exception`` guard — the closest pure-Python analogue to the
    thread being killed outright — and leaves the in-flight futures
    unresolved for the watchdog to fail.
    """


class ChaosModelWrapper:
    """Base wrapper delegating the full localizer surface to a real model.

    Subclasses override :meth:`node_scores` to inject faults; every
    other attribute (``in_dim``, ``hidden``, ``params``, ``fingerprint``,
    ``save``, …) passes straight through so the service, registry, and
    cache cannot tell a chaos model from a healthy one until it misbehaves.
    """

    def __init__(self, base: DelayFaultLocalizer):
        self._base = base
        self.forward_calls = 0
        self._lock = threading.Lock()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._base, name)

    def _next_call(self) -> int:
        with self._lock:
            self.forward_calls += 1
            return self.forward_calls

    def node_scores(self, graph: CircuitGraph) -> np.ndarray:
        self._next_call()
        return self._base.node_scores(graph)


class CrashOnNthForwardModel(ChaosModelWrapper):
    """Fail ``crash_count`` consecutive forward passes from the Nth on.

    ``crash_on`` counts from 1. ``crash_count=None`` fails forever — the
    shape needed to trip a consecutive-failure circuit breaker; a finite
    count lets the model "recover" so half-open probes and watchdog
    restarts can be observed succeeding. With ``kill_worker=True`` the
    failure is a :class:`WorkerKilled` instead of an ordinary exception, so
    it unwinds the worker thread rather than failing one request.
    """

    def __init__(
        self,
        base: DelayFaultLocalizer,
        crash_on: int = 1,
        crash_count: int | None = 1,
        kill_worker: bool = False,
        message: str = "injected forward failure",
    ):
        super().__init__(base)
        if crash_on < 1:
            raise ValueError(f"crash_on counts from 1, got {crash_on}")
        if crash_count is not None and crash_count < 1:
            raise ValueError(f"crash_count must be >= 1 or None, got {crash_count}")
        self.crash_on = crash_on
        self.crash_count = crash_count
        self.kill_worker = kill_worker
        self.message = message

    def node_scores(self, graph: CircuitGraph) -> np.ndarray:
        call = self._next_call()
        should_crash = call >= self.crash_on and (
            self.crash_count is None or call < self.crash_on + self.crash_count
        )
        if should_crash:
            detail = f"{self.message} (forward call {call})"
            if self.kill_worker:
                raise WorkerKilled(detail)
            raise RuntimeError(detail)
        return self._base.node_scores(graph)


class SlowForwardModel(ChaosModelWrapper):
    """Sleep ``delay_s`` before each forward pass (optionally only the
    first ``slow_calls`` of them) to simulate an overloaded or wedged model."""

    def __init__(
        self, base: DelayFaultLocalizer, delay_s: float, slow_calls: int | None = None
    ):
        super().__init__(base)
        if delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        self.delay_s = delay_s
        self.slow_calls = slow_calls

    def node_scores(self, graph: CircuitGraph) -> np.ndarray:
        call = self._next_call()
        if self.slow_calls is None or call <= self.slow_calls:
            time.sleep(self.delay_s)
        return self._base.node_scores(graph)


def corrupt_artifact(
    registry: ModelRegistry, name: str, version: str, mode: str = "append"
) -> Path:
    """Tamper with a published artifact on disk; returns the artifact path.

    Modes: ``append`` (extra trailing bytes — checksum mismatch, file still
    loads as npz), ``truncate`` (drop the tail — mismatch *and* unreadable),
    ``flip`` (flip one byte in the middle).
    """
    artifact = registry.root / "models" / name / version / "model.npz"
    raw = artifact.read_bytes()
    if mode == "append":
        artifact.write_bytes(raw + b"\x00chaos")
    elif mode == "truncate":
        artifact.write_bytes(raw[: max(1, len(raw) // 2)])
    elif mode == "flip":
        mid = len(raw) // 2
        artifact.write_bytes(raw[:mid] + bytes([raw[mid] ^ 0xFF]) + raw[mid + 1 :])
    else:
        raise ValueError(f"unknown corruption mode: {mode!r}")
    return artifact


#: :func:`malformed_model` kinds -> the parameter key each one breaks.
MALFORMED_PARAM_KEYS = {
    "short_b1": "b1",
    "int_W1s": "W1s",
    "flat_w3": "w3",
    "missing_b3": "b3",
    "nan_b2": "b2",
}


def malformed_model(kind: str, hidden: int = 8, seed: int = 0) -> DelayFaultLocalizer:
    """A model whose :meth:`~DelayFaultLocalizer.save` writes one broken
    parameter: a (1,) bias, an int64 weight, a flattened head, a missing
    bias, or a NaN bias (see :data:`MALFORMED_PARAM_KEYS`).

    Only ``save`` should be called on it: its ``params`` dict is detached
    from its flat vector.
    """
    model = DelayFaultLocalizer(hidden=hidden, seed=seed)
    params = dict(model.params)
    if kind == "short_b1":
        params["b1"] = np.zeros(1)
    elif kind == "int_W1s":
        params["W1s"] = params["W1s"].astype(np.int64)
    elif kind == "flat_w3":
        params["w3"] = params["w3"].ravel()
    elif kind == "missing_b3":
        del params["b3"]
    elif kind == "nan_b2":
        params["b2"] = np.full_like(params["b2"], np.nan)
    else:
        raise ValueError(f"unknown malformation: {kind!r}")
    model.params = params
    return model


#: :class:`UnreadableArtifact` kinds.
UNREADABLE_KINDS = ("truncated_zip", "random_bytes")


class UnreadableArtifact:
    """Stand-in for a model whose :meth:`save` writes a file ``np.load``
    cannot read as an ``.npz``: a real artifact cut in half (it still starts
    with the zip magic) or seeded random bytes of the same length.

    ``ModelRegistry.publish`` accepts it, so the published checksum matches
    the broken bytes and only reading the file can refuse it.
    """

    def __init__(self, kind: str, hidden: int = 8, seed: int = 0):
        if kind not in UNREADABLE_KINDS:
            raise ValueError(f"unknown unreadable artifact: {kind!r}")
        self.kind = kind
        self._model = DelayFaultLocalizer(hidden=hidden, seed=seed)
        self.in_dim = self._model.in_dim
        self.hidden = hidden

    def save(self, path: str | Path, metadata: dict[str, Any] | None = None) -> Path:
        path = self._model.save(path, metadata=metadata)
        raw = path.read_bytes()
        if self.kind == "truncated_zip":
            path.write_bytes(raw[: len(raw) // 2])
        else:
            path.write_bytes(np.random.default_rng(0).bytes(len(raw)))
        return path


class FlakyIO:
    """Callable for ``ModelRegistry.io_fault_hook``: fail the first N
    I/O attempts with ``exc_type``, then behave forever after.

    Exercises the registry's retry-with-backoff without touching the real
    filesystem — the hook fires *before* each read attempt.
    """

    def __init__(self, failures: int, exc_type: type[OSError] = OSError):
        if failures < 0:
            raise ValueError(f"failures must be >= 0, got {failures}")
        self.failures = failures
        self.exc_type = exc_type
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self) -> None:
        with self._lock:
            self.calls += 1
            if self.calls <= self.failures:
                raise self.exc_type(f"injected transient I/O failure {self.calls}")


class _StubReplicaHandler(JSONHandler):
    access_event = None  # chaos stubs stay silent
    server: "StubReplica"

    def route(self, method: str) -> None:
        stub = self.server
        stub.record(method, self.path, self.headers.get(TRACE_HEADER))
        action = stub.next_action()
        if action == "hang":
            time.sleep(stub.hang_s)
        elif action == "drop":
            # Close the socket mid-exchange: the client sees a reset after
            # the request was (possibly) received — the ambiguous failure.
            self.connection.close()
            return
        elif action == "fail":
            self.send_json(503, {"error": "injected_failure", "replica": stub.name})
            return
        body = self.read_body(required=False)
        if self.path == "/healthz":
            self.send_json(200, {"status": stub.health_status, "replica": stub.name})
            return
        if self.path.startswith("/metrics"):
            self.send_json(200, stub.metrics_payload())
            return
        self.send_json(
            200,
            {
                "replica": stub.name,
                "method": method,
                "path": self.path,
                "echo_bytes": len(body),
                "served": stub.served_count(),
            },
        )


class StubReplica(ThreadedHTTPServer):
    """Programmable fake ``m3d-serve`` replica for router chaos tests.

    Healthy by default: answers ``/healthz`` with 200 and echoes everything
    else. Faults are *scripted*, never random:

    - :meth:`fail_next` — the next N requests answer an injected 503;
    - :meth:`hang_next` — the next N requests sleep ``hang_s`` before
      answering (client-side timeout territory);
    - :meth:`drop_next` — the next N connections are closed mid-exchange
      (the ambiguous post-send failure);
    - :attr:`partitioned` — while ``True``, the listener is not accepting:
      :meth:`partition` closes the socket so connects fail fast, and
      :meth:`heal` rebinds on the *same* port.

    For fleet-federation tests, ``/healthz`` reports :attr:`health_status`
    and ``/metrics`` serves whatever :meth:`set_metrics` installed, so a
    stub can impersonate a real replica's instrument registry.
    """

    allow_reuse_address = True

    def __init__(self, name: str = "stub", host: str = "127.0.0.1", hang_s: float = 5.0):
        super().__init__((host, 0), _StubReplicaHandler)
        self.name = name
        self.host = host
        self.hang_s = hang_s
        self.partitioned = False
        #: What /healthz reports (fleet tests script degraded replicas).
        self.health_status = "ok"
        self._metrics: dict[str, Any] = {}
        self._script: list[str] = []
        self._requests: list[tuple[str, str]] = []
        self._trace_ids: list[str] = []
        self._served = 0
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None

    @property
    def key(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "StubReplica":
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"stub-replica-{self.name}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- scripting ---------------------------------------------------------

    def fail_next(self, n: int = 1) -> None:
        with self._lock:
            self._script.extend(["fail"] * n)

    def hang_next(self, n: int = 1) -> None:
        with self._lock:
            self._script.extend(["hang"] * n)

    def drop_next(self, n: int = 1) -> None:
        with self._lock:
            self._script.extend(["drop"] * n)

    def set_metrics(self, payload: dict[str, Any]) -> None:
        """Instrument dict served from ``/metrics`` (the
        ``/metrics?format=json`` shape: ``{name: {"type", "value"|...}}``)."""
        with self._lock:
            self._metrics = dict(payload)

    def metrics_payload(self) -> dict[str, Any]:
        with self._lock:
            return dict(self._metrics)

    def partition(self) -> None:
        """Refuse connections outright (connect-phase failure) until healed."""
        if not self.partitioned:
            self.partitioned = True
            self.stop()

    def heal(self, port: int | None = None) -> None:
        """Rebind (same port by default) and resume serving."""
        if not self.partitioned:
            return
        self.server_address = (self.host, port if port is not None else self.port)
        # ThreadingHTTPServer.__init__ would rebuild state; rebind manually.
        self.socket = socket.socket(self.address_family, self.socket_type)
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.server_bind()
        self.server_activate()
        self.partitioned = False
        self.start()

    # -- accounting --------------------------------------------------------

    def next_action(self) -> str:
        with self._lock:
            return self._script.pop(0) if self._script else "serve"

    def record(self, method: str, path: str, trace_id: str | None = None) -> None:
        with self._lock:
            self._requests.append((method, path))
            if trace_id:
                self._trace_ids.append(trace_id)
            self._served += 1

    def served_count(self) -> int:
        with self._lock:
            return self._served

    def requests_seen(self) -> list[tuple[str, str]]:
        with self._lock:
            return list(self._requests)

    def trace_ids_seen(self) -> list[str]:
        """Every X-M3D-Trace-Id header received, in arrival order."""
        with self._lock:
            return list(self._trace_ids)


def slow_loris(
    host: str, port: int, hold_s: float, partial: bytes = b"POST /localize HTTP/1.1\r\n"
) -> threading.Thread:
    """Hold a connection open with an eternally incomplete request.

    Connects, dribbles ``partial`` (headers never finish), and keeps the
    socket open for ``hold_s`` — the classic slot-exhaustion attack shape.
    Returns the (daemon) thread holding the socket; join it to release.
    A threaded server must keep answering *other* clients throughout.
    """

    def _hold() -> None:
        try:
            # Explicit timeout (M3D210): the *attacker* must also not hang
            # the test suite if the server closes on it.
            with socket.create_connection((host, port), timeout=hold_s + 5.0) as sock:
                sock.sendall(partial)
                time.sleep(hold_s)
        except OSError:
            pass  # server closed on us; the hold simply ends early

    thread = threading.Thread(target=_hold, name="chaos-slow-loris", daemon=True)
    thread.start()
    return thread
