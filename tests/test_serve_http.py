"""The shared JSON handler on the wire: framing and body limits.

Driven over raw sockets against the real ``m3d-serve`` server and the
``m3d-route`` router (in front of a :class:`StubReplica`):

- a response that leaves the request body unread closes the connection, so
  the unread bytes are never answered as a smuggled second request;
- a malformed or oversized ``Content-Length`` gets a structured 400/413
  carrying the trace id, on the server and the router alike;
- a hostile ``/localize`` body or deadline header (undecodable JSON, a
  boolean ``top_k``, a boolean or non-finite ``deadline_ms``) gets a
  structured 400 with a trace id, never a dropped connection or a 5xx.
"""

import json
import socket
import threading

import pytest
from fixture_graphs import make_clean_graph

from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.obs.context import sanitize_trace_id
from m3d_fault_loc.serve.http import DEFAULT_MAX_BODY_BYTES, TRACE_HEADER
from m3d_fault_loc.serve.router import ReplicaRouter, create_router_server
from m3d_fault_loc.serve.server import create_server
from m3d_fault_loc.serve.service import LocalizationService
from m3d_fault_loc.testing.chaos import StubReplica

SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


def _serve(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture()
def live_server():
    service = LocalizationService(model=DelayFaultLocalizer(hidden=8, seed=4))
    server = create_server(service, max_body_bytes=10)
    thread = _serve(server)
    yield server
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)


@pytest.fixture()
def live_router():
    stub = StubReplica("a").start()
    router = ReplicaRouter([("127.0.0.1", stub.port)])
    server = create_router_server(router)
    thread = _serve(server)
    yield server, router, stub
    server.shutdown()
    server.server_close()
    router.close()
    stub.stop()
    thread.join(timeout=5)


def exchange(port: int, raw: bytes, quiet_s: float = 1.0):
    """Send ``raw`` on one connection and read until the server closes it or
    stays quiet for ``quiet_s`` after its first bytes; return the parsed
    responses and whether the server closed the connection."""
    data, closed = b"", False
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(raw)
        try:
            while chunk := sock.recv(65536):
                data += chunk
                sock.settimeout(quiet_s)
            closed = True
        except ConnectionResetError:
            closed = True
        except TimeoutError:
            pass
    responses = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        length = int(headers["Content-Length"])
        responses.append((int(lines[0].split()[1]), headers, rest[:length]))
        data = rest[length:]
    return responses, closed


def post(
    path: str, content_length: str | None, body: bytes = b"", extra_headers: str = ""
) -> bytes:
    head = f"POST {path} HTTP/1.1\r\nHost: x\r\n{extra_headers}"
    if content_length is not None:
        head += f"Content-Length: {content_length}\r\n"
    return head.encode() + b"\r\n" + body


# -- unread bodies close the connection -------------------------------------


def _assert_single_closing_answer(responses, closed, status):
    assert [r[0] for r in responses] == [status], "the unread body was answered"
    assert responses[0][1]["Connection"] == "close"
    assert closed


def test_payload_too_large_does_not_answer_the_unread_body(live_server):
    responses, closed = exchange(
        live_server.port, post("/localize", str(len(SMUGGLED)), SMUGGLED)
    )
    _assert_single_closing_answer(responses, closed, 413)
    assert json.loads(responses[0][2])["error"] == "payload_too_large"


def test_post_to_unknown_path_does_not_answer_the_unread_body(live_server):
    responses, closed = exchange(live_server.port, post("/nope", str(len(SMUGGLED)), SMUGGLED))
    _assert_single_closing_answer(responses, closed, 404)


def test_draining_router_does_not_answer_the_unread_body(live_router):
    server, router, stub = live_router
    router.begin_drain()
    responses, closed = exchange(server.port, post("/localize", str(len(SMUGGLED)), SMUGGLED))
    _assert_single_closing_answer(responses, closed, 503)
    assert stub.requests_seen() == []


# -- malformed and oversized Content-Length ---------------------------------

#: case -> (Content-Length header value or None for absent, status, error)
CONTENT_LENGTH_CASES = {
    "abc": ("abc", 400, "bad_request"),
    "1e3": ("1e3", 400, "bad_request"),
    "-5": ("-5", 400, "bad_request"),
    "missing": (None, 400, "bad_request"),
    "over-cap": (str(DEFAULT_MAX_BODY_BYTES + 1), 413, "payload_too_large"),
}


@pytest.fixture(params=["server", "router"])
def front(request):
    """``(kind, port, stub)`` for the server (default body cap, like the
    router's) and for the router in front of a stub replica."""
    if request.param == "router":
        server, _, stub = request.getfixturevalue("live_router")
        yield "router", server.port, stub
        return
    service = LocalizationService(model=DelayFaultLocalizer(hidden=8, seed=4))
    server = create_server(service)
    thread = _serve(server)
    yield "server", server.port, None
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)


@pytest.mark.parametrize("case", sorted(CONTENT_LENGTH_CASES))
def test_malformed_content_length_gets_a_structured_answer(front, case):
    kind, port, stub = front
    value, status, error = CONTENT_LENGTH_CASES[case]
    responses, closed = exchange(port, post("/localize", value))
    if kind == "router" and case == "missing":
        # No body declared is an empty body: forwarded, the replica decides.
        assert [r[0] for r in responses] == [200]
        assert json.loads(responses[0][2])["echo_bytes"] == 0
        return
    assert [r[0] for r in responses] == [status]
    headers, payload = responses[0][1], json.loads(responses[0][2])
    assert payload["error"] == error
    assert sanitize_trace_id(headers[TRACE_HEADER]) is not None
    assert payload["trace_id"] == headers[TRACE_HEADER]
    if value is not None:  # the declared body was never read
        assert headers["Connection"] == "close" and closed
    if stub is not None:
        assert stub.requests_seen() == []


# -- hostile /localize payloads ---------------------------------------------

GRAPH_JSON = json.dumps(make_clean_graph().to_json_dict()).encode()


def _localize_body(fields: bytes = b"") -> bytes:
    """A valid /localize body for the clean fixture graph plus raw ``fields``."""
    return b'{"graph": ' + GRAPH_JSON + fields + b"}"


#: case -> (raw request body, X-M3D-Deadline-Ms header value or None). The
#: bodies are raw bytes so they can carry what json.dumps never writes:
#: invalid UTF-8 and the NaN / Infinity / 1e309 number tokens.
HOSTILE_CASES = {
    "body-not-utf8": (b'{"graph": "\xff"}', None),
    "body-nested-too-deep": (b"[" * 100_000 + b"]" * 100_000, None),
    "top_k-true": (_localize_body(b', "top_k": true'), None),
    "deadline-true": (_localize_body(b', "deadline_ms": true'), None),
    "deadline-NaN": (_localize_body(b', "deadline_ms": NaN'), None),
    "deadline-Infinity": (_localize_body(b', "deadline_ms": Infinity'), None),
    "deadline-1e309": (_localize_body(b', "deadline_ms": 1e309'), None),
    "deadline-string-nan": (_localize_body(b', "deadline_ms": "nan"'), None),
    "deadline-string-inf": (_localize_body(b', "deadline_ms": "inf"'), None),
    "deadline-past-timeout-max": (_localize_body(b', "deadline_ms": 1e300'), None),
    "header-nan": (_localize_body(), "nan"),
    "header-inf": (_localize_body(), "inf"),
    "header-Infinity": (_localize_body(), "Infinity"),
    "header-1e309": (_localize_body(), "1e309"),
}


@pytest.fixture(scope="module")
def roomy_server():
    """The server with the default body cap, shared by the hostile cases."""
    service = LocalizationService(model=DelayFaultLocalizer(hidden=8, seed=4))
    server = create_server(service)
    thread = _serve(server)
    yield server
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)


def _reject_non_json_constant(token: str):
    raise AssertionError(f"response body carries the non-JSON token {token}")


@pytest.mark.parametrize("case", sorted(HOSTILE_CASES))
def test_hostile_localize_payload_gets_a_structured_400(roomy_server, case):
    body, deadline_header = HOSTILE_CASES[case]
    extra = "Connection: close\r\n"
    if deadline_header is not None:
        extra += f"X-M3D-Deadline-Ms: {deadline_header}\r\n"
    responses, _ = exchange(roomy_server.port, post("/localize", str(len(body)), body, extra))
    assert [r[0] for r in responses] == [400], "expected exactly one 400 answer"
    headers, raw = responses[0][1], responses[0][2]
    payload = json.loads(raw, parse_constant=_reject_non_json_constant)
    assert payload["error"] == "bad_request"
    assert sanitize_trace_id(headers[TRACE_HEADER]) is not None
    assert payload["trace_id"] == headers[TRACE_HEADER]


# -- malformed graphs reach the contract gate, never a 500 or a 200 --------


def _graph_with(edit) -> dict:
    graph = make_clean_graph().to_json_dict()
    edit(graph)
    return graph


def _shorten(field: str):
    def edit(graph):
        graph[field]["data"] = graph[field]["data"][:-1]
        graph[field]["shape"][-1] -= 1

    return edit


def _retype(field: str, dtype: str, first=None):
    def edit(graph):
        graph[field]["dtype"] = dtype
        if first is not None:
            graph[field]["data"][0] = first

    return edit


def _set(key: str, value):
    return lambda graph: graph.__setitem__(key, value)


#: case -> edit of the clean fixture graph's JSON. Each edit is well-formed
#: JSON that the decoder accepts; the contract gate must reject it.
MALFORMED_GRAPHS = {
    "edge_type-short": _shorten("edge_type"),
    "is_po-short": _shorten("is_po"),
    "tier-float64-nan": _retype("tier", "float64", first="NaN"),
    "edge_index-float64": _retype("edge_index", "float64"),
    "edge_type-float64": _retype("edge_type", "float64"),
    "num_tiers-string": _set("num_tiers", "2"),
    "num_tiers-float": _set("num_tiers", 2.5),
    "fault_index-string": _set("fault_index", "3"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
def test_malformed_graph_gets_a_contract_violation(roomy_server, case):
    graph = _graph_with(MALFORMED_GRAPHS[case])
    body = json.dumps({"graph": graph}).replace('"NaN"', "NaN").encode()
    responses, _ = exchange(
        roomy_server.port, post("/localize", str(len(body)), body, "Connection: close\r\n")
    )
    assert [r[0] for r in responses] == [422], "expected exactly one 422 answer"
    headers, raw = responses[0][1], responses[0][2]
    payload = json.loads(raw)
    assert payload["error"] == "contract_violation"
    assert payload["violations"]
    assert sanitize_trace_id(headers[TRACE_HEADER]) is not None
    assert payload["trace_id"] == headers[TRACE_HEADER]
