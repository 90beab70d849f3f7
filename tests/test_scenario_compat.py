"""Backward-compat guard: the pre-scenario serve path must not move.

``tests/golden/localize_no_scenario.json`` was captured against the serve
stack *before* the scenario platform landed (same model seed, same request).
A request with no ``scenario`` field must reproduce that response today —
same ranking, same scores, same digest, same model version — with the new
``scenario`` key as the only addition.
"""

import http.client
import json
import threading
from pathlib import Path

import pytest

from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.serve.server import create_server
from m3d_fault_loc.serve.service import LocalizationService

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "localize_no_scenario.json").read_text()
)

#: Response keys that legitimately vary run to run.
VOLATILE = {"latency_ms", "trace_id"}


@pytest.fixture()
def live_server():
    # Mirror the capture configuration exactly (see "captured_from" in the
    # golden file): hidden=8, seed=0.
    service = LocalizationService(model=DelayFaultLocalizer(hidden=8, seed=0))
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


def post_localize(server, payload):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request("POST", "/localize", body=json.dumps(payload))
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def assert_matches_golden(body):
    expected = GOLDEN["response"]
    assert set(body) - set(expected) <= {"scenario"}, "unexpected new response keys"
    for key in expected:
        if key in VOLATILE:
            assert key in body
        elif key == "top":
            assert len(body["top"]) == len(expected["top"])
            for got, want in zip(body["top"], expected["top"]):
                assert got["node"] == want["node"]
                assert got["index"] == want["index"]
                assert got["tier"] == want["tier"]
                assert got["score"] == pytest.approx(want["score"], rel=1e-9)
                assert got["prob"] == pytest.approx(want["prob"], rel=1e-9)
        else:
            assert body[key] == expected[key], key


def test_golden_request_replays_without_scenario_field(live_server):
    status, body = post_localize(live_server, GOLDEN["request"])
    assert status == 200
    assert_matches_golden(body)
    assert body["scenario"] == "single_delay"


def test_explicit_single_delay_equals_default(live_server):
    payload = dict(GOLDEN["request"])
    status, default_body = post_localize(live_server, payload)
    assert status == 200
    status, explicit_body = post_localize(
        live_server, {**payload, "scenario": "single_delay"}
    )
    assert status == 200
    # Second call is a cache hit under the same (scenario, top_k, digest) key:
    # the explicit name and the default resolve to the identical cache entry.
    assert explicit_body["cached"] is True
    for key in set(default_body) - VOLATILE - {"cached"}:
        assert default_body[key] == explicit_body[key], key


def test_golden_graph_still_parses_and_gates():
    graph = CircuitGraph.from_json_dict(GOLDEN["request"]["graph"])
    assert graph.num_nodes == GOLDEN["response"]["num_nodes"]
