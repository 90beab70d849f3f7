"""Start, health-check and stop the real ``m3d-serve`` / ``m3d-route`` processes.

Every process is the repository's own CLI (``python -m m3d_fault_loc.cli.serve``
or ``.route``) run from ``src/`` of this checkout, bound to loopback. A
:class:`Deployment` is what one serve workload drives: the processes, the
port its clients talk to, and how long it took from spawning them to the
first healthy answer (the ``setup_s`` metric).
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HOST = "127.0.0.1"

#: Spawn-to-healthy budget; a process that needs longer is broken, not slow.
BOOT_TIMEOUT_S = 60.0
#: SIGTERM-to-exit budget before the process is killed.
STOP_TIMEOUT_S = 15.0
#: Socket timeout for the benchmark's own control requests.
CONTROL_TIMEOUT_S = 5.0
#: How often a health endpoint is polled during set-up.
POLL_S = 0.005


class BootError(RuntimeError):
    """A server process died or never became healthy."""


def server_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def get_json(port: int, path: str, timeout: float = CONTROL_TIMEOUT_S) -> tuple[int, Any]:
    """One control request on a fresh connection: ``(status, decoded body)``."""
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Process:
    """One spawned CLI process, its stdout drain, and its lifetime."""

    def __init__(self, module: str, args: list[str], marker: str):
        self.module = module
        self.marker = marker
        self.popen = subprocess.Popen(
            [sys.executable, "-m", module, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=server_env(),
            cwd=ROOT,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        # The drain keeps reading after the marker so a chatty process can
        # never block on a full pipe.
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        assert self.popen.stdout is not None
        for line in self.popen.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_port(self, deadline: float) -> int:
        """Block until the process prints ``<marker>host:port``; return the port."""
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise BootError(f"{self.module} printed no {self.marker!r} in time") from None
            if line is None:
                raise BootError(f"{self.module} exited with {self.popen.wait()} while booting")
            if self.marker in line:
                return int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.popen.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
        try:
            self.popen.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.popen.kill()
            self.popen.wait(timeout=STOP_TIMEOUT_S)
        self._reader.join(timeout=STOP_TIMEOUT_S)


def _wait_until(predicate: Callable[[], bool], deadline: float, what: str) -> None:
    while time.monotonic() < deadline:
        try:
            if predicate():
                return
        except (OSError, http.client.HTTPException, ValueError):
            pass
        time.sleep(POLL_S)
    raise BootError(f"timed out waiting for {what}")


@dataclass
class Deployment:
    """The processes one serve workload drives."""

    #: Port the load generator talks to (the replica, or the router).
    port: int
    #: The keep-alive health endpoint on :attr:`port`.
    health_path: str
    #: Ports of the ``m3d-serve`` processes (one, or the router's replicas).
    replica_ports: list[int]
    processes: list[Process] = field(default_factory=list)
    #: Spawn to first healthy answer, seconds.
    setup_s: float = 0.0

    @property
    def replica_keys(self) -> list[str]:
        return [f"{HOST}:{port}" for port in self.replica_ports]

    def peak_rss_mb(self) -> float:
        return sum(p.peak_rss_mb() for p in self.processes)

    def stop(self) -> None:
        # Router first, then replicas: the drain order the CLIs document.
        for process in reversed(self.processes):
            process.stop()

    def __enter__(self) -> Deployment:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def _serve_args(model: Path, trace_log: Path | None) -> list[str]:
    args = ["--model", str(model), "--port", "0"]
    if trace_log is not None:
        args += ["--trace-log", str(trace_log)]
    return args


def start_serve(model: Path, trace_dir: Path | None = None) -> Deployment:
    """One ``m3d-serve`` with its default configuration."""
    t0 = time.perf_counter()
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    trace_log = None if trace_dir is None else trace_dir / "replica-0.jsonl"
    proc = Process("m3d_fault_loc.cli.serve", _serve_args(model, trace_log), "serving on ")
    try:
        port = proc.wait_port(deadline)
        _wait_until(lambda: get_json(port, "/healthz")[0] == 200, deadline, "/healthz")
    except BaseException:
        proc.stop()
        raise
    return Deployment(port, "/healthz", [port], [proc], time.perf_counter() - t0)


def start_routed(model: Path, replicas: int = 2, trace_dir: Path | None = None) -> Deployment:
    """``m3d-route`` in front of ``replicas`` single-worker ``m3d-serve`` processes.

    The processes start one after another, each once the previous one is
    healthy: the router's command line needs the replicas' ports, and three
    interpreters importing numpy at once on two cores made the set-up time
    depend on how the scheduler interleaved them. Set-up ends when
    ``/router/healthz`` reports ``ok``.
    """
    t0 = time.perf_counter()
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    procs: list[Process] = []
    ports: list[int] = []
    try:
        for i in range(replicas):
            trace_log = None if trace_dir is None else trace_dir / f"replica-{i}.jsonl"
            args = _serve_args(model, trace_log) + ["--workers", "1"]
            procs.append(Process("m3d_fault_loc.cli.serve", args, "serving on "))
            port = procs[-1].wait_port(deadline)
            _wait_until(lambda p=port: get_json(p, "/healthz")[0] == 200, deadline, "/healthz")
            ports.append(port)
        router_args = ["--port", "0"]
        for port in ports:
            router_args += ["--replica", f"{HOST}:{port}"]
        if trace_dir is not None:
            router_args += ["--trace-log", str(trace_dir / "router.jsonl")]
        procs.append(Process("m3d_fault_loc.cli.route", router_args, "routing on "))
        router_port = procs[-1].wait_port(deadline)
        _wait_until(
            lambda: get_json(router_port, "/router/healthz")[1]["status"] == "ok",
            deadline,
            "/router/healthz ok",
        )
    except BaseException:
        for proc in reversed(procs):
            proc.stop()
        raise
    return Deployment(router_port, "/router/healthz", ports, procs, time.perf_counter() - t0)


def scrape(deployment: Deployment) -> list[dict[str, Any]]:
    """``/metrics?format=json`` and ``/model`` from every replica."""
    out = []
    for port in deployment.replica_ports:
        _, metrics = get_json(port, "/metrics?format=json")
        _, model = get_json(port, "/model")
        out.append({"metrics": metrics, "model": model})
    return out
