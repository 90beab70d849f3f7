"""Single-process closed-loop HTTP load generator.

The load comes from callers that each wait for their reply before sending
the next request: one sender thread per caller, at most ``os.cpu_count()``,
each owning one keep-alive ``http.client`` connection with an explicit
timeout. Before each request a caller thinks for a short seeded exponential
time. Request bodies are pre-encoded bytes, and every request carries its
own ``X-M3D-Trace-Id`` so a traced run can join server spans to the
client's samples.

Why closed loop, and why the think time: the kernel's delayed-ACK timer
holds most keep-alive responses for ~40 ms, and which connections it stalls
depends on their recent timing. With open-loop Poisson arrivals that state
lasted seconds, so percentiles moved by up to 3x between seeds (on a 2-core
Linux machine, ``serve_large_miss`` p95 ranged 34-115 ms over five seeds at
10 requests/s). Callers that always have a request ready keep every
connection on one path; the think time stops them from phase-locking to
each other and to the kernel's 4 ms timer tick, which otherwise made
medians jump between tick-sized steps from run to run.

Responses are stored raw and checked after the phase, so answer checking
never competes with the servers for the CPU while the clock runs.
"""

from __future__ import annotations

import http.client
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from m3d_fault_loc.serve.router import ATTEMPTS_HEADER, REPLICA_HEADER
from m3d_fault_loc.serve.server import TRACE_HEADER

from e2ebench.servers import HOST

#: Per-request socket timeout.
REQUEST_TIMEOUT_S = 30.0
#: Response headers a check or a layer metric reads.
KEPT_HEADERS = (REPLICA_HEADER, ATTEMPTS_HEADER)


def sender_count(callers: int) -> int:
    """Sender threads (and connections) for ``callers``: never more than the cores."""
    return max(1, min(os.cpu_count() or 1, callers))


@dataclass
class Sample:
    """One request as the client saw it; times are seconds from phase start."""

    index: int
    body: int
    trace_id: str
    sender: int
    #: Think time slept before sending, seconds.
    think: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: bytes = b""
    headers: dict[str, str] = field(default_factory=dict)
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1e3


class Sender:
    """One keep-alive connection, used by exactly one thread at a time."""

    def __init__(self, port: int):
        self.port = port
        self.conn = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(HOST, self.port, timeout=REQUEST_TIMEOUT_S)

    def request(
        self, method: str, path: str, body: bytes | None, trace_id: str
    ) -> tuple[int, bytes, dict[str, str]]:
        headers = {TRACE_HEADER: trace_id}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            # A broken keep-alive connection is replaced, never reused.
            self.conn.close()
            self.conn = self._connect()
            raise
        kept = {name: value for name in KEPT_HEADERS if (value := response.getheader(name))}
        return response.status, payload, kept

    def close(self) -> None:
        self.conn.close()


class Stream:
    """A request stream: position ``i`` sends body ``bodies[i % len(bodies)]``.

    Positions are claimed in order by whichever sender is free, so a cyclic
    cold pool is replayed in exactly the order the workload drew.
    """

    def __init__(self, bodies: np.ndarray, payloads: list[bytes], tag: str):
        self.bodies = bodies
        self.payloads = payloads
        self.tag = tag
        self.position = 0
        self._lock = threading.Lock()

    def claim(self, limit: int | None) -> int | None:
        """Next position, or ``None`` once ``limit`` positions were claimed."""
        with self._lock:
            if limit is not None and self.position >= limit:
                return None
            index = self.position
            self.position += 1
        return index


def _run_threads(senders: list[Sender], target, timeout_s: float) -> None:
    """Run ``target(i, sender)`` on one thread per sender; re-raise the first error."""
    errors: list[BaseException] = []

    def guarded(i: int, sender: Sender) -> None:
        try:
            target(i, sender)
        except Exception as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(i, s), daemon=True) for i, s in enumerate(senders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout_s)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a sender thread outlived its phase")
    if errors:
        raise errors[0]


def closed_loop(
    senders: list[Sender],
    stream: Stream,
    duration_s: float,
    limit: int | None = None,
    think_ms: float = 0.0,
    seed: int = 0,
) -> tuple[list[Sample], float]:
    """Keep every sender busy for ``duration_s`` (or until ``limit`` requests).

    Before each request a sender thinks for an exponential time with mean
    ``think_ms`` drawn from its own seeded generator. Returns the samples in
    completion order and the elapsed seconds up to the last completion.
    """
    samples: list[Sample] = []
    lock = threading.Lock()
    t0 = time.perf_counter()

    def work(i: int, sender: Sender) -> None:
        rng = np.random.default_rng([seed, i])
        while time.perf_counter() - t0 < duration_s:
            index = stream.claim(limit)
            if index is None:
                return
            body = int(stream.bodies[index % len(stream.bodies)])
            sample = Sample(index, body, f"{stream.tag}-{index:08d}", i)
            if think_ms:
                sample.think = float(rng.exponential(think_ms)) / 1e3
                time.sleep(sample.think)
            sample.sent = time.perf_counter() - t0
            try:
                status, payload, headers = sender.request(
                    "POST", "/localize", stream.payloads[body], sample.trace_id
                )
                sample.status, sample.payload, sample.headers = status, payload, headers
            except (OSError, http.client.HTTPException) as exc:
                sample.error = f"{type(exc).__name__}: {exc}"
            sample.done = time.perf_counter() - t0
            with lock:
                samples.append(sample)

    _run_threads(senders, work, duration_s + 2 * REQUEST_TIMEOUT_S)
    elapsed = max((s.done for s in samples), default=duration_s)
    return samples, elapsed


def round_trips(senders: list[Sender], path: str, per_sender: int, tag: str) -> list[float]:
    """Back-to-back keep-alive ``GET path`` round trips (ms) on every sender."""
    times: list[float] = []
    lock = threading.Lock()

    def work(i: int, sender: Sender) -> None:
        for k in range(per_sender):
            t = time.perf_counter()
            status, _, _ = sender.request("GET", path, None, f"{tag}-{i}-{k:04d}")
            elapsed = (time.perf_counter() - t) * 1e3
            if status != 200:
                raise RuntimeError(f"GET {path} answered {status}")
            with lock:
                times.append(elapsed)

    _run_threads(senders, work, per_sender * REQUEST_TIMEOUT_S)
    return times


def client_gap_ms(samples: list[Sample]) -> float:
    """Mean time a sender takes from one reply to its next request, not
    counting the think time it was told to sleep."""
    gaps = []
    by_sender: dict[int, list[Sample]] = {}
    for sample in samples:
        by_sender.setdefault(sample.sender, []).append(sample)
    for mine in by_sender.values():
        mine.sort(key=lambda s: s.sent)
        gaps += [(b.sent - b.think - a.done) * 1e3 for a, b in zip(mine, mine[1:])]
    return float(np.mean(gaps)) if gaps else 0.0
