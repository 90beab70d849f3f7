"""Scenario-aware serving: /localize round-trips, 422s, per-scenario metrics.

Every registered scenario must be servable end-to-end over a live socket;
the scenario gates the graph with its own composed engine, tags the result,
partitions the result cache, and shows up in the metrics registry.
"""

import http.client
import json
import threading

import pytest

from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario, scenario_names
from m3d_fault_loc.serve.server import create_server
from m3d_fault_loc.serve.service import LocalizationService

SPEC = ScenarioSpec(n_graphs=1, n_gates=12, n_inputs=3, num_tiers=2, seed=31)


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


def test_every_scenario_round_trips_over_http(live_server):
    for name in scenario_names():
        graph = get_scenario(name).generate(SPEC)[0]
        status, body = request(
            live_server, "POST", "/localize",
            {"graph": graph.to_json_dict(), "top_k": 3, "scenario": name},
        )
        assert status == 200, (name, body)
        assert body["scenario"] == name
        assert len(body["top"]) == 3

    status, metrics = request(live_server, "GET", "/metrics?format=json")
    assert status == 200
    for name in scenario_names():
        series = metrics[f'm3d_scenario_requests_total{{scenario="{name}"}}']
        assert series["value"] == 1
        assert series["labels"] == {"scenario": name}


def test_metrics_scenario_series_cover_exactly_the_table(live_server):
    """A scenario deleted from the table leaves no series behind on
    ``/metrics``; every kept one has both counters."""
    status, metrics = request(live_server, "GET", "/metrics?format=json")
    assert status == 200
    for family in ("m3d_scenario_requests_total", "m3d_scenario_rejections_total"):
        labelled = {
            series["labels"]["scenario"]
            for key, series in metrics.items()
            if key.startswith(family + "{")
        }
        assert labelled == set(scenario_names()), family


def test_omitted_scenario_defaults_to_single_delay(live_server):
    graph = get_scenario("single_delay").generate(SPEC)[0]
    status, body = request(
        live_server, "POST", "/localize", {"graph": graph.to_json_dict()}
    )
    assert status == 200
    assert body["scenario"] == "single_delay"


def test_unknown_scenario_is_422_with_known_list(live_server):
    graph = get_scenario("single_delay").generate(SPEC)[0]
    status, body = request(
        live_server, "POST", "/localize",
        {"graph": graph.to_json_dict(), "scenario": "stuck_at_zero"},
    )
    assert status == 422
    assert body["error"] == "unknown_scenario"
    assert body["scenario"] == "stuck_at_zero"
    assert body["known"] == scenario_names()
    assert body["trace_id"]


def test_cross_tagged_graph_is_422_contract_violation(live_server):
    graph = get_scenario("seu_bitflip").generate(SPEC)[0]
    status, body = request(
        live_server, "POST", "/localize",
        {"graph": graph.to_json_dict(), "scenario": "intermittent_delay"},
    )
    assert status == 422
    assert body["error"] == "contract_violation"
    assert any(v["rule_id"] == "M3D110" for v in body["violations"])

    status, metrics = request(live_server, "GET", "/metrics?format=json")
    assert metrics['m3d_scenario_rejections_total{scenario="intermittent_delay"}']["value"] == 1


def test_non_string_scenario_is_400(live_server):
    graph = get_scenario("single_delay").generate(SPEC)[0]
    for bad in (7, "", ["multi_delay"]):
        status, body = request(
            live_server, "POST", "/localize",
            {"graph": graph.to_json_dict(), "scenario": bad},
        )
        assert status == 400, bad
        assert body["error"] == "bad_request"


def test_result_cache_is_partitioned_by_scenario():
    service = LocalizationService(model=DelayFaultLocalizer(hidden=8, seed=4))
    service.start()
    try:
        graph = get_scenario("single_delay").generate(SPEC)[0]  # untagged
        first = service.localize(graph, scenario="single_delay")
        cross = service.localize(graph, scenario="multi_delay")
        again = service.localize(graph, scenario="multi_delay")
        assert first.cached is False
        assert cross.cached is False  # same digest, different scenario key
        assert again.cached is True
        assert first.scenario == "single_delay"
        assert cross.scenario == "multi_delay"
    finally:
        service.close()
