"""Router chaos smoke: 1 ``m3d-route`` fronting 2 ``m3d-serve`` replicas.

Boots two real replica subprocesses and one router subprocess, drives
concurrent localization traffic through the router, SIGKILLs one replica
mid-traffic, and asserts the acceptance criterion of the replica tier:

- **zero lost requests** — every request admitted during the kill window
  resolves to a 200 (``POST /localize`` is idempotent, so the router
  replays connect- and send-phase failures on the surviving replica);
- **degraded visibility** — ``/router/healthz`` reports ``degraded-1-of-2``
  once the prober ejects the dead replica;
- **recovery and model change** — a replacement replica on the same port,
  booted on a second artifact the smoke saves itself, is readmitted by the
  half-open probe, health returns to ``ok``, and the restored replica serves
  traffic again (consistent hashing routes its keys home). Its answers name
  the new artifact's ``model.version`` while the survivor's still name the
  old one: a model change is a replica replacement behind the router.
- **lean router** — after serving every phase, the live ``m3d-route``
  process maps no numpy or scipy shared object (read from
  ``/proc/<pid>/maps``): the router holds sockets, a ring and counters.
- **observability under chaos** — every process writes a ``--trace-log``;
  mid-chaos, ``m3d-obs stitch`` must still join the killed replica's hops
  into cross-process waterfalls (its flushed records survive the SIGKILL,
  the lost attempt shows as a missing hop) and ``m3d-obs fleet`` against
  the router's ``/router/fleet`` must report ``degraded-1-of-2``.

Runs under a hard timeout in CI so a hang fails the job, not wedges it.

Usage::

    PYTHONPATH=src python scripts/router_smoke.py --model /tmp/localizer.npz
"""

from __future__ import annotations

import argparse
import http.client
import json
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario


def _check(condition: bool, label: str) -> None:
    if not condition:
        raise AssertionError(f"smoke check failed: {label}")
    print(f"ok: {label}")


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _request(
    port: int, method: str, path: str, body: dict[str, Any] | None = None,
    timeout: float = 30.0,
) -> tuple[int, Any, dict[str, str]]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type") or ""
        data = json.loads(raw) if "json" in content_type else raw.decode()
        return response.status, data, dict(response.getheaders())
    finally:
        conn.close()


def _boot(cmd: list[str], marker: str) -> subprocess.Popen:
    """Start a subprocess and block until its stdout prints ``marker``."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    assert proc.stdout is not None
    for _ in range(50):
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(f"process exited before printing {marker!r}: {cmd}")
        print(f"[boot] {line.rstrip()}")
        if marker in line:
            break
    else:
        raise AssertionError(f"never saw {marker!r} from {cmd}")
    # Keep draining stdout so the pipe buffer never blocks the server.
    threading.Thread(
        target=lambda: [None for _ in proc.stdout], daemon=True  # type: ignore[union-attr]
    ).start()
    return proc


def _wait_for(predicate, timeout_s: float, label: str) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if predicate():
                print(f"ok: {label}")
                return
        except OSError:
            pass
        time.sleep(0.05)
    raise AssertionError(f"smoke check failed (timeout {timeout_s}s): {label}")


def _router_status(router_port: int) -> str:
    _, health, _ = _request(router_port, "GET", "/router/healthz", timeout=5.0)
    return health["status"]


def _boot_replica(model: Path, port: int, trace_log: Path | None = None) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "m3d_fault_loc.cli.serve", "--model", str(model),
           "--port", str(port)]
    if trace_log is not None:
        cmd += ["--trace-log", str(trace_log)]
    return _boot(cmd, marker="serving on http://")


def _mapped_numeric_libraries(pid: int) -> list[str]:
    """numpy/scipy shared objects mapped into the live process ``pid``."""
    maps = Path(f"/proc/{pid}/maps").read_text()
    return sorted({
        line.split()[-1] for line in maps.splitlines()
        if "_multiarray_umath" in line or "scipy" in line
    })


def _run_obs(args: list[str]) -> Any:
    """Run an ``m3d-obs`` subcommand with ``--format json``; parse stdout."""
    result = subprocess.run(
        [sys.executable, "-m", "m3d_fault_loc.obs.cli", *args, "--format", "json"],
        capture_output=True, text=True, timeout=60,
    )
    if result.returncode != 0:
        raise AssertionError(
            f"m3d-obs {args[0]} exited {result.returncode}: {result.stderr.strip()}"
        )
    return json.loads(result.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", type=Path, required=True, help="trained .npz artifact")
    parser.add_argument("--requests", type=int, default=24,
                        help="requests fired during the kill window")
    args = parser.parse_args(argv)

    spec = ScenarioSpec(n_graphs=48, n_gates=12, n_inputs=3, seed=23)
    graphs = get_scenario("single_delay").generate(spec)
    payloads = [{"graph": g.to_json_dict(), "top_k": 3} for g in graphs]

    port_a, port_b = _free_port(), _free_port()
    router_port = _free_port()
    trace_dir = Path(tempfile.mkdtemp(prefix="m3d-smoke-traces-"))
    logs = {name: trace_dir / f"{name}.jsonl" for name in ("router", "replica_a", "replica_b")}
    procs: list[subprocess.Popen] = []
    try:
        replica_a = _boot_replica(args.model, port_a, trace_log=logs["replica_a"])
        replica_b = _boot_replica(args.model, port_b, trace_log=logs["replica_b"])
        procs += [replica_a, replica_b]
        router = _boot(
            [sys.executable, "-m", "m3d_fault_loc.cli.route",
             "--replica", f"127.0.0.1:{port_a}", "--replica", f"127.0.0.1:{port_b}",
             "--port", str(router_port),
             "--trace-log", str(logs["router"]),
             "--probe-interval-s", "0.2", "--probe-timeout-s", "1.0",
             "--cooldown-s", "0.5", "--eject-after", "2"],
            marker="routing on http://",
        )
        procs.append(router)
        _wait_for(lambda: _router_status(router_port) == "ok",
                  timeout_s=10.0, label="router healthz is ok with both replicas up")

        # Phase 1: steady state — traffic spreads over both replicas.
        seen: set[str] = set()
        for payload in payloads[:16]:
            status, _, headers = _request(router_port, "POST", "/localize", payload)
            _check(status == 200, f"steady-state localize ({payload['graph']['name']})")
            seen.add(headers["X-M3D-Replica"])
        _check(len(seen) == 2, f"consistent hashing spread traffic over both replicas: {seen}")

        # Phase 2: SIGKILL one replica while concurrent traffic is in flight.
        victim_key = f"127.0.0.1:{port_a}"
        victim, survivor_key = replica_a, f"127.0.0.1:{port_b}"
        outcomes: list[tuple[int, str]] = []
        failures: list[str] = []
        lock = threading.Lock()

        def fire(payload: dict[str, Any]) -> None:
            try:
                status, body, headers = _request(router_port, "POST", "/localize", payload)
                with lock:
                    outcomes.append((status, headers.get("X-M3D-Replica", "?")))
                    if status != 200:
                        failures.append(f"{payload['graph']['name']}: {status} {body}")
            except Exception as exc:  # a raw socket error IS a lost request
                with lock:
                    failures.append(f"{payload['graph']['name']}: transport error {exc!r}")

        kill_window = payloads[16:16 + args.requests]
        with ThreadPoolExecutor(max_workers=8, thread_name_prefix="smoke-client") as pool:
            futures = []
            for i, payload in enumerate(kill_window):
                futures.append(pool.submit(fire, payload))
                if i == len(kill_window) // 3:
                    victim.kill()
                    print(f"[chaos] SIGKILLed replica {victim_key} mid-traffic")
                time.sleep(0.01)
            for future in futures:
                future.result()
        _check(not failures,
               f"zero lost requests across the kill window ({len(outcomes)} fired): "
               + "; ".join(failures[:5]))
        _check(len(outcomes) == len(kill_window), "every request in the window resolved")
        post_kill = [replica for _, replica in outcomes[-5:]]
        _check(all(r == survivor_key for r in post_kill),
               "tail of the window is served entirely by the survivor")

        _wait_for(lambda: _router_status(router_port) == "degraded-1-of-2",
                  timeout_s=10.0, label="router health degrades to degraded-1-of-2")

        # Mid-chaos observability: stitch every process's trace log while
        # one replica is a SIGKILLed corpse, and federate fleet metrics.
        stitched = _run_obs(["stitch"] + [str(p) for p in logs.values()])
        _check(bool(stitched), "stitch joins trace logs into at least one waterfall")
        victim_hops = [
            hop
            for request in stitched
            for hop in request["hops"]
            if hop["process"] == "replica" and hop["addr"] == victim_key
        ]
        _check(bool(victim_hops), "killed replica's flushed hops still stitch")
        cross_process = [r for r in stitched if len(r["processes"]) >= 2]
        _check(bool(cross_process), "waterfalls span router + replica processes")
        failovers = [
            r for r in stitched
            if r["missing_attempts"] or len(r["attempts"]) >= 2
        ]
        _check(bool(failovers),
               "kill-window failover is visible (missing hop or multi-attempt)")

        fleet = _run_obs(["fleet", "--router", f"127.0.0.1:{router_port}"])
        _check(fleet["status"] == "degraded-1-of-2",
               f"fleet snapshot reports degraded-1-of-2 (got {fleet['status']})")
        _check(fleet["reachable"] == 1 and fleet["members"] == 2,
               "fleet snapshot counts 1 of 2 members reachable")
        merged_requests = fleet["merged"].get("m3d_requests_total", {}).get("value", 0)
        _check(merged_requests > 0, "fleet merged counters carry survivor traffic")

        # Phase 3: recovery and model change — a replacement replica on the
        # same port, serving a second artifact, is readmitted through the
        # half-open probe and serves its keys again under the new version.
        old_version = DelayFaultLocalizer.load(args.model).fingerprint()[:12]
        new_model = DelayFaultLocalizer(hidden=8, seed=1)
        new_version = new_model.fingerprint()[:12]
        _check(new_version != old_version, "replacement artifact differs from --model")
        replacement = _boot_replica(new_model.save(trace_dir / "replacement.npz"), port_a)
        procs.append(replacement)
        _wait_for(lambda: _router_status(router_port) == "ok",
                  timeout_s=15.0, label="healed replica readmitted; router health ok")
        expected = {victim_key: new_version, survivor_key: old_version}
        restored_seen = set()
        for payload in payloads[16 + args.requests:] + payloads[:16 + args.requests]:
            status, body, headers = _request(router_port, "POST", "/localize", payload)
            _check(status == 200, f"post-recovery localize ({payload['graph']['name']})")
            replica = headers["X-M3D-Replica"]
            _check(body["model"]["version"] == expected[replica],
                   f"{replica} answers with model {body['model']['version']}")
            restored_seen.add(replica)
            if restored_seen == set(expected):
                break
        _check(victim_key in restored_seen, "restored replica serves traffic again")
        _check(survivor_key in restored_seen, "survivor still serves its keys")

        numeric = _mapped_numeric_libraries(router.pid)
        _check(not numeric, f"live router process maps no numpy/scipy: {numeric}")

        # Graceful drain cascade: SIGTERM the router; it must exit cleanly.
        router.send_signal(signal.SIGTERM)
        _check(router.wait(timeout=15) == 0, "router drains and exits 0 on SIGTERM")
        print("router smoke: PASS")
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        shutil.rmtree(trace_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
