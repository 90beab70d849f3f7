"""End-to-end HTTP API test: the full acceptance scenario over a live socket.

Boots the real server (ephemeral port, in-process thread), then: a valid
localization, the same graph again (cache hit, no second forward pass), a
contract-violating graph (structured 422 citing an M3D1xx rule), and a
metrics read showing non-zero latency/batch observations.
"""

import http.client
import json
import threading

import pytest

from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario
from m3d_fault_loc.serve.server import create_server
from m3d_fault_loc.serve.service import LocalizationService


@pytest.fixture()
def live_server():
    service = LocalizationService(model=DelayFaultLocalizer(hidden=8, seed=4))
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def request(server, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        raw = response.read()
        if "json" in (response.getheader("Content-Type") or ""):
            return response.status, json.loads(raw)
        return response.status, raw.decode()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def graph():
    return get_scenario("single_delay").generate(
        ScenarioSpec(n_graphs=1, n_gates=12, n_inputs=3, seed=9)
    )[0]


def test_end_to_end_localize_cache_reject_metrics(live_server, graph):
    payload = {"graph": graph.to_json_dict(), "top_k": 3}

    status, health = request(live_server, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok"

    # 1) valid graph: top-k localization with latency recorded
    status, first = request(live_server, "POST", "/localize", payload)
    assert status == 200
    assert len(first["top"]) == 3
    assert first["cached"] is False
    assert first["latency_ms"] > 0
    assert first["model"]["name"] == "adhoc"

    # 2) same graph again: served from cache, no second forward pass
    status, second = request(live_server, "POST", "/localize", payload)
    assert status == 200
    assert second["cached"] is True
    assert second["top"] == first["top"]
    service = live_server.service
    assert service.m_cache_hits.value == 1
    assert service.m_forward_passes.value == 1

    # 3) contract-violating graph: structured 422 citing the M3D1xx rule
    bad = graph.to_json_dict()
    bad["x"]["dtype"] = "float64"
    status, rejection = request(live_server, "POST", "/localize", {"graph": bad})
    assert status == 422
    assert rejection["error"] == "contract_violation"
    assert any(v["rule_id"] == "M3D106" for v in rejection["violations"])

    # 4) metrics: non-zero latency/forward observations in both formats
    status, metrics = request(live_server, "GET", "/metrics?format=json")
    assert status == 200
    assert metrics["m3d_requests_total"]["value"] == 3
    assert metrics["m3d_contract_rejections_total"]["value"] == 1
    assert metrics["m3d_request_latency_seconds"]["count"] == 2
    assert metrics["m3d_request_latency_seconds"]["sum"] > 0
    assert metrics["m3d_forward_passes_total"]["value"] == 1

    status, prom = request(live_server, "GET", "/metrics")
    assert status == 200
    assert "m3d_requests_total 3" in prom
    assert "m3d_request_latency_seconds_count 2" in prom


def test_model_endpoint_reports_identity_and_cache(live_server, graph):
    request(live_server, "POST", "/localize", {"graph": graph.to_json_dict()})
    status, payload = request(live_server, "GET", "/model")
    assert status == 200
    assert payload["model"]["source"] == "adhoc"
    assert payload["model"]["sha256"]
    assert payload["cache"]["size"] == 1


def test_malformed_payloads_get_400(live_server):
    status, body = request(live_server, "POST", "/localize", {"nope": 1})
    assert status == 400 and body["error"] == "bad_request"

    status, body = request(live_server, "POST", "/localize", {"graph": {"broken": True}})
    assert status == 400 and "unreadable graph payload" in body["detail"]

    conn = http.client.HTTPConnection("127.0.0.1", live_server.port, timeout=10)
    try:
        conn.request("POST", "/localize", body="{not json")
        response = conn.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["error"] == "bad_request"
    finally:
        conn.close()


def test_unknown_routes_get_404(live_server):
    assert request(live_server, "GET", "/nope")[0] == 404
    assert request(live_server, "POST", "/nope")[0] == 404
