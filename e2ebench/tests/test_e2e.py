"""Tests for the end-to-end benchmark: wiring, answer checks, limits, compare."""

from __future__ import annotations

import copy
import http.server
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from e2ebench import compare, loadgen, spec
from e2ebench.servers import start_serve
from e2ebench.workloads import (
    MODEL_SEED,
    WORKLOADS,
    Reference,
    build_traffic,
    served_model,
    smoke,
)
from m3d_fault_loc.model.localizer import DelayFaultLocalizer

ROOT = Path(__file__).resolve().parents[2]
SPEC = spec.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_and_checks_answers(workload):
    code, lines = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--smoke")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert spec.validate_result(result, SPEC, trace=False) == []
    assert result["correct"] and result["failed"] == 0
    for metric in SPEC["end_to_end"]:
        assert any(line.startswith(f"{metric['name']} ") for line in lines)
        assert result["metrics"][metric["name"]]["value"] > 0


def test_traced_smoke_run_attributes_the_latency():
    code, lines = _run(
        "--workload", "routed_medium_mixed", "--seed", "3", "--seconds", "2", "--smoke",
        "--trace", "1",
    )
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert spec.validate_result(result, SPEC, trace=True) == []
    layers = result["metrics"]
    assert abs(layers["bench.residual_share"]["value"]) <= spec.RESIDUAL_LIMIT
    assert layers["serve.router.attempts_mean"]["value"] == 1.0
    assert layers["serve.router.owner_share"]["value"] == 1.0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns(".run", "__pycache__"))
    code, lines = _run("--workload", "serve_small_hot", "--seed", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_benchmark_json_follows_its_contract():
    assert sorted(SPEC) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(n) for n in all_names)
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in SPEC["end_to_end"])}
    # Every layer metric names, before measuring, what it should move and where.
    assert sorted(spec.LAYER_MOVES) == sorted(m["name"] for m in SPEC["per_layer"])
    for targets in spec.LAYER_MOVES.values():
        for target, workloads in targets:
            assert target in all_names and set(workloads) <= set(names)


def _record(value: float = 1.0) -> dict:
    """A schema-valid record with every metric set to ``value``."""
    def block(metrics):
        return {m["name"]: {"value": value, "unit": m["unit"]} for m in metrics}

    workloads = {}
    for w in SPEC["workloads"]:
        layers = block(SPEC["per_layer"])
        layers["bench.residual_share"]["value"] = 0.01
        workloads[w["name"]] = {"metrics": block(SPEC["end_to_end"]), "layers": layers}
    return {"schema_version": spec.RECORD_SCHEMA_VERSION, "workloads": workloads}


def test_validator_rejects_missing_unknown_and_unattributed_metrics():
    assert spec.validate_record(_record(), SPEC) == []

    missing = _record()
    del missing["workloads"]["serve_small_hot"]["metrics"]["p95_ms"]
    assert any("missing metric 'p95_ms'" in e for e in spec.validate_record(missing, SPEC))

    unknown = _record()
    unknown["workloads"]["train_medium"]["layers"]["model.magic_ms"] = {
        "value": 1.0, "unit": "ms"}
    assert any("'model.magic_ms' is not in BENCHMARK.json" in e
               for e in spec.validate_record(unknown, SPEC))

    unattributed = _record()
    unattributed["workloads"]["serve_large_miss"]["layers"]["bench.residual_share"][
        "value"] = -0.2
    assert any("residual_share" in e for e in spec.validate_record(unattributed, SPEC))


def test_answer_check_flags_a_wrong_reference(tmp_path):
    workload = smoke(WORKLOADS["serve_small_hot"])
    traffic = build_traffic(workload, seed=5)
    model = served_model()
    bodies = [0, workload.hot, *sorted(traffic.rejects)]
    with start_serve(model.save(tmp_path / "model.npz")) as deployment:
        sender = loadgen.Sender(deployment.port)
        try:
            stream = loadgen.Stream(np.asarray(bodies), traffic.payloads, "check")
            samples, _ = loadgen.closed_loop([sender], stream, 30.0, limit=len(bodies))
        finally:
            sender.close()
    assert [s.status for s in samples] == [200, 200, 422, 422]

    right = Reference(model, traffic)
    assert [right.check(s) for s in samples] == [None] * len(samples)
    wrong = Reference(DelayFaultLocalizer(hidden=model.hidden, seed=MODEL_SEED + 1), traffic)
    assert all(wrong.check(s) for s in samples if s.status == 200)

    # A 422 on a clean body and a 200 on a seeded back edge are both wrong.
    swapped = [copy.copy(s) for s in samples]
    swapped[0].body, swapped[2].body = swapped[2].body, swapped[0].body
    assert right.check(swapped[0]) is not None and right.check(swapped[2]) is not None


class _CountingHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    connections: set[tuple[str, int]] = set()
    lock = threading.Lock()

    def setup(self) -> None:
        super().setup()
        with self.lock:
            self.connections.add(self.client_address)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self.rfile.read(int(self.headers["Content-Length"]))
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def test_generator_never_opens_more_connections_than_cores(monkeypatch):
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        senders = [loadgen.Sender(server.server_address[1]) for _ in range(
            loadgen.sender_count(callers=64))]
        stream = loadgen.Stream(np.zeros(1, dtype=np.int64), [b"{}"], "conn")
        samples, _ = loadgen.closed_loop(senders, stream, 0.3)
        for sender in senders:
            sender.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert samples and all(s.status == 200 for s in samples)
    assert 1 <= len(_CountingHandler.connections) <= (os.cpu_count() or 1)
    monkeypatch.setattr(loadgen.os, "cpu_count", lambda: 1)
    assert loadgen.sender_count(callers=2) == 1


def test_compare_names_the_layer_behind_a_slower_p50(tmp_path, capsys):
    old, new = _record(), _record()
    slowed = new["workloads"]["serve_large_miss"]
    slowed["metrics"]["p50_ms"]["value"] = 1.5
    slowed["layers"]["analysis.gate_ms"]["value"] = 1.5
    for path, record in (("old.json", old), ("new.json", new)):
        (tmp_path / path).write_text(json.dumps(record))
    code = compare.main([str(tmp_path / "old.json"), str(tmp_path / "new.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "layer that moved most: analysis.gate_ms (+0.500 ms" in out
    assert "PAST BOUND" in out and out.count("PAST BOUND") == 1

    assert compare.main([str(tmp_path / "old.json"), str(tmp_path / "old.json")]) == 0
