"""End-to-end smoke of the serving stack against a real subprocess.

Boots ``m3d_fault_loc.cli.serve`` on an ephemeral port, then drives the
acceptance scenario over real HTTP: health check, a localization, a repeat
of the same graph (must be a cache hit with no extra forward pass), a
contract-violating graph (must get a structured 422), a metrics read
asserting the counters actually advanced, the trace plumbing (every
response carries ``X-M3D-Trace-Id``, ``/debug/traces`` shows completed
traces with stage spans and the per-stage histograms register on
``/metrics``), and a full Prometheus-exposition validation via
``scripts/check_prom.py``. Exits non-zero on any failure.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py --model /tmp/localizer.npz
"""

from __future__ import annotations

import argparse
import http.client
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check_prom import check_exposition  # noqa: E402 - sibling script import


def _request(
    port: int, method: str, path: str, body: dict[str, Any] | None = None
) -> tuple[int, Any, dict[str, str]]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
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


def _check(condition: bool, label: str) -> None:
    if not condition:
        raise AssertionError(f"smoke check failed: {label}")
    print(f"ok: {label}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", type=Path, required=True, help="trained .npz artifact")
    args = parser.parse_args(argv)

    spec = ScenarioSpec(n_graphs=1, n_gates=12, n_inputs=3, seed=11)
    graph = get_scenario("single_delay").generate(spec)[0]
    good_payload = {"graph": graph.to_json_dict(), "top_k": 3}
    bad_graph = graph.to_json_dict()
    bad_graph["x"]["dtype"] = "float64"  # schema dtype violation -> M3D106
    bad_graph["name"] = "smoke-bad-dtype"
    short_graph = graph.to_json_dict()  # one edge type too few -> M3D106, not a 500
    short_graph["edge_type"]["data"].pop()
    short_graph["edge_type"]["shape"] = [len(short_graph["edge_type"]["data"])]
    short_graph["name"] = "smoke-short-edge-type"

    proc = subprocess.Popen(
        [sys.executable, "-m", "m3d_fault_loc.cli.serve", "--model", str(args.model),
         "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        port = None
        assert proc.stdout is not None
        for _ in range(20):
            line = proc.stdout.readline()
            if not line:
                break
            print(f"[server] {line.rstrip()}")
            if line.startswith("serving on http://"):
                port = int(line.rsplit(":", 1)[1])
                break
        _check(port is not None, "server booted and printed its ephemeral port")
        assert port is not None

        status, health, _ = _request(port, "GET", "/healthz")
        _check(status == 200 and health["status"] == "ok", "GET /healthz is ok")

        status, first, first_headers = _request(port, "POST", "/localize", good_payload)
        _check(status == 200 and len(first["top"]) == 3, "POST /localize returns top-3")
        _check(first["cached"] is False, "first localization is a model run")
        trace_id = first_headers.get("X-M3D-Trace-Id", "")
        _check(len(trace_id) >= 8, "200 response carries an X-M3D-Trace-Id header")
        _check(first.get("trace_id") == trace_id, "response body echoes the same trace id")

        status, second, _ = _request(port, "POST", "/localize", good_payload)
        _check(status == 200 and second["cached"] is True, "repeat request served from cache")
        _check(second["top"] == first["top"], "cached ranking matches the original")

        status, rejection, rej_headers = _request(
            port, "POST", "/localize", {"graph": bad_graph, "top_k": 3}
        )
        _check(status == 422, "contract-violating graph rejected with 422")
        _check(
            any(v["rule_id"].startswith("M3D1") for v in rejection["violations"]),
            "rejection cites an M3D1xx contract rule",
        )
        rej_tid = rej_headers.get("X-M3D-Trace-Id")
        _check(
            rej_tid is not None and rejection.get("trace_id") == rej_tid,
            "422 error body and header agree on the trace id",
        )

        status, short, _ = _request(port, "POST", "/localize", {"graph": short_graph})
        _check(
            status == 422 and short.get("error") == "contract_violation",
            "graph with a short edge_type rejected with 422, not a 500",
        )

        status, debug, _ = _request(port, "GET", "/debug/traces")
        _check(status == 200, "GET /debug/traces responds")
        _check(len(debug["traces"]) >= 3, "debug ring holds the completed traces")
        by_id = {t["trace_id"]: t for t in debug["traces"]}
        _check(trace_id in by_id, "the first request's trace is retrievable by id")
        stages = {s["stage"] for s in by_id[trace_id]["spans"]}
        _check(
            {"contract_gate", "cache_lookup", "batch_infer"} <= stages,
            "trace spans cover the pipeline stages",
        )

        status, metrics, _ = _request(port, "GET", "/metrics?format=json")
        _check(status == 200, "GET /metrics responds")
        stage_names = ("contract_gate", "cache_lookup", "queue_wait", "batch_infer")
        _check(
            all(metrics[f'm3d_stage_seconds{{stage="{s}"}}']["count"] >= 1 for s in stage_names),
            "all four m3d_stage_seconds series recorded observations",
        )
        _check(metrics["m3d_requests_total"]["value"] == 4, "request counter advanced to 4")
        _check(metrics["m3d_cache_hits_total"]["value"] == 1, "cache-hit counter advanced")
        _check(metrics["m3d_forward_passes_total"]["value"] == 1, "exactly one forward pass ran")
        _check(
            metrics["m3d_contract_rejections_total"]["value"] == 2, "rejection counter advanced"
        )
        _check(
            metrics["m3d_request_latency_seconds"]["count"] >= 2
            and metrics["m3d_request_latency_seconds"]["sum"] > 0,
            "latency histogram recorded non-zero time",
        )

        status, prom, _ = _request(port, "GET", "/metrics")
        _check(
            isinstance(prom, str) and "m3d_requests_total 4" in prom,
            "Prometheus text exposition agrees",
        )
        problems = check_exposition(prom)
        for problem in problems:
            print(f"check_prom: {problem}", file=sys.stderr)
        _check(not problems, "Prometheus exposition passes check_prom validation")
        print("serve smoke: PASS")
        return 0
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


if __name__ == "__main__":
    sys.exit(main())
