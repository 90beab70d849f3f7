"""Observability over the live HTTP stack: trace ids on every outcome,
/debug/traces, stage-span accounting, context isolation, and chaos tagging."""

import http.client
import json
import logging
import threading
import time

import pytest

from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.obs.context import sanitize_trace_id
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario
from m3d_fault_loc.serve.resilience import ExponentialBackoff
from m3d_fault_loc.serve.server import TRACE_HEADER, create_server
from m3d_fault_loc.serve.service import LocalizationService
from m3d_fault_loc.testing.chaos import CrashOnNthForwardModel, SlowForwardModel


@pytest.fixture(scope="module")
def graphs():
    return get_scenario("single_delay").generate(
        ScenarioSpec(n_graphs=8, n_gates=12, n_inputs=3, seed=13)
    )


def base_model():
    return DelayFaultLocalizer(hidden=8, seed=5)


def make_service(model, **kwargs):
    kwargs.setdefault("watchdog_interval_s", 0.03)
    kwargs.setdefault(
        "restart_backoff", ExponentialBackoff(base_s=0.01, factor=2.0, max_s=0.05)
    )
    kwargs.setdefault("drain_deadline_s", 2.0)
    return LocalizationService(model=model, **kwargs)


class _LiveServer:
    def __init__(self, service):
        self.service = service
        self.server = create_server(service, host="127.0.0.1", port=0)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.port = self.server.port

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
        self.thread.join(timeout=5)


@pytest.fixture()
def live(request):
    servers = []

    def boot(model=None, **kwargs):
        live_server = _LiveServer(make_service(model or base_model(), **kwargs))
        servers.append(live_server)
        return live_server

    yield boot
    for s in servers:
        s.stop()


def request_raw(port, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        data = (
            json.loads(raw)
            if "json" in (response.getheader("Content-Type") or "")
            else raw.decode()
        )
        return response.status, data, dict(response.getheaders())
    finally:
        conn.close()


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -- the trace id on every outcome -----------------------------------------


def test_success_carries_header_and_matching_body_id(live, graphs):
    server = live()
    status, body, headers = request_raw(
        server.port, "POST", "/localize", {"graph": graphs[0].to_json_dict()}
    )
    assert status == 200
    assert sanitize_trace_id(headers[TRACE_HEADER]) is not None
    assert body["trace_id"] == headers[TRACE_HEADER]


def test_client_supplied_trace_id_is_honored(live, graphs):
    server = live()
    mine = "client-supplied-trace-0001"
    status, body, headers = request_raw(
        server.port,
        "POST",
        "/localize",
        {"graph": graphs[0].to_json_dict()},
        headers={TRACE_HEADER: mine},
    )
    assert status == 200
    assert headers[TRACE_HEADER] == mine and body["trace_id"] == mine


def test_malformed_client_trace_id_is_replaced(live, graphs):
    server = live()
    status, body, headers = request_raw(
        server.port,
        "POST",
        "/localize",
        {"graph": graphs[0].to_json_dict()},
        headers={TRACE_HEADER: 'bad id "with" junk'},
    )
    assert status == 200
    assert headers[TRACE_HEADER] != 'bad id "with" junk'
    assert sanitize_trace_id(headers[TRACE_HEADER]) is not None


def test_422_contract_violation_carries_trace_id(live, graphs):
    server = live()
    bad = graphs[0].to_json_dict()
    bad["x"]["dtype"] = "float64"
    status, body, headers = request_raw(server.port, "POST", "/localize", {"graph": bad})
    assert status == 422
    assert body["trace_id"] == headers[TRACE_HEADER]


def test_504_deadline_exceeded_carries_trace_id(live, graphs):
    server = live(SlowForwardModel(base_model(), delay_s=0.5, slow_calls=1))
    status, body, headers = request_raw(
        server.port,
        "POST",
        "/localize",
        {"graph": graphs[0].to_json_dict(), "deadline_ms": 40},
    )
    assert status == 504 and body["error"] == "deadline_exceeded"
    assert body["trace_id"] == headers[TRACE_HEADER]


def test_429_load_shed_carries_trace_id(live, graphs):
    model = SlowForwardModel(base_model(), delay_s=0.4, slow_calls=2)
    server = live(model, max_queue=1)
    results = {}

    def call(key, graph):
        def run():
            try:
                results[key] = server.service.localize(graph, timeout_s=5.0)
            except Exception as exc:
                results[key] = exc

        t = threading.Thread(target=run, daemon=True)
        t.start()
        return t

    t_a = call("a", graphs[0])
    assert wait_until(lambda: model.forward_calls >= 1)
    t_b = call("b", graphs[1])
    assert wait_until(lambda: server.service.queue_depth() == 1)
    status, body, headers = request_raw(
        server.port, "POST", "/localize", {"graph": graphs[2].to_json_dict()}
    )
    assert status == 429 and body["error"] == "load_shed"
    assert body["trace_id"] == headers[TRACE_HEADER]
    t_a.join(timeout=5)
    t_b.join(timeout=5)


def test_503_draining_carries_trace_id(live, graphs):
    server = live()
    server.service.begin_drain()
    status, body, headers = request_raw(
        server.port, "POST", "/localize", {"graph": graphs[0].to_json_dict()}
    )
    assert status == 503 and body["error"] == "draining"
    assert body["trace_id"] == headers[TRACE_HEADER]


def test_400_bad_request_carries_trace_id(live):
    server = live()
    status, body, headers = request_raw(server.port, "POST", "/localize", {"nope": 1})
    assert status == 400
    assert body["trace_id"] == headers[TRACE_HEADER]


# -- /debug/traces and span accounting -------------------------------------


def test_debug_traces_returns_completed_traces(live, graphs):
    server = live()
    ids = []
    for i in range(3):
        _, body, _ = request_raw(
            server.port, "POST", "/localize", {"graph": graphs[i].to_json_dict()}
        )
        ids.append(body["trace_id"])
    status, debug, _ = request_raw(server.port, "GET", "/debug/traces")
    assert status == 200
    by_id = {t["trace_id"]: t for t in debug["traces"]}
    assert set(ids) <= set(by_id)
    assert debug["traces"][0]["trace_id"] == ids[-1]  # newest first
    assert debug["stats"]["completed"] >= 3

    status, limited, _ = request_raw(server.port, "GET", "/debug/traces?n=1")
    assert status == 200 and len(limited["traces"]) == 1

    status, bad, _ = request_raw(server.port, "GET", "/debug/traces?n=wat")
    assert status == 400 and bad["error"] == "bad_request"


def test_top_level_stage_durations_sum_to_total_within_10pct(live, graphs):
    # A deliberately slow model makes inference dominate, so the untraced
    # slivers (enqueue, breaker check) are far inside the 10% budget.
    server = live(SlowForwardModel(base_model(), delay_s=0.08))
    _, body, _ = request_raw(
        server.port, "POST", "/localize", {"graph": graphs[0].to_json_dict()}
    )
    _, debug, _ = request_raw(server.port, "GET", "/debug/traces")
    trace = {t["trace_id"]: t for t in debug["traces"]}[body["trace_id"]]

    top_level = [s for s in trace["spans"] if "parent" not in s]
    worker_side = {s["stage"] for s in trace["spans"] if s.get("parent") == "await_result"}
    assert {"contract_gate", "cache_lookup", "await_result"} <= {
        s["stage"] for s in top_level
    }
    assert {"queue_wait", "batch_infer"} <= worker_side

    total = trace["duration_ms"]
    stage_sum = sum(s["duration_ms"] for s in top_level)
    assert abs(stage_sum - total) <= 0.10 * total, (
        f"top-level stages sum to {stage_sum:.3f}ms vs total {total:.3f}ms"
    )


def test_per_stage_histograms_exposed_on_metrics(live, graphs):
    # One vocabulary: the `stage` labels of m3d_stage_seconds are exactly
    # the leaf spans of a cache miss's trace (await_result only groups).
    server = live()
    body = {"graph": graphs[0].to_json_dict()}
    _, miss, _ = request_raw(server.port, "POST", "/localize", body)
    _, hit, _ = request_raw(server.port, "POST", "/localize", body)
    assert (miss["cached"], hit["cached"]) == (False, True)
    _, debug, _ = request_raw(server.port, "GET", "/debug/traces")
    spans = {t["trace_id"]: t for t in debug["traces"]}[miss["trace_id"]]["spans"]
    leaf_stages = {s["stage"] for s in spans} - {s.get("parent") for s in spans}
    assert leaf_stages == {"contract_gate", "cache_lookup", "queue_wait", "batch_infer"}

    _, metrics, _ = request_raw(server.port, "GET", "/metrics?format=json")
    counts = {
        inst["labels"]["stage"]: inst["count"]
        for key, inst in metrics.items()
        if key.partition("{")[0] == "m3d_stage_seconds"
    }
    assert set(counts) == leaf_stages
    assert counts == {"contract_gate": 2, "cache_lookup": 2, "queue_wait": 1, "batch_infer": 1}
    assert metrics['m3d_stage_seconds{stage="batch_infer"}']["type"] == "histogram"
    _, prom, _ = request_raw(server.port, "GET", "/metrics")
    assert 'm3d_stage_seconds_bucket{stage="batch_infer",le="+Inf"} 1' in prom
    assert prom.count("# TYPE m3d_stage_seconds histogram") == 1


# -- context isolation under concurrency -----------------------------------


def test_overlapping_requests_never_cross_contaminate_trace_ids(live, graphs):
    server = live(SlowForwardModel(base_model(), delay_s=0.05))
    outcomes = {}

    def run(key, graph, trace_id):
        status, body, headers = request_raw(
            server.port,
            "POST",
            "/localize",
            {"graph": graph.to_json_dict()},
            headers={TRACE_HEADER: trace_id},
        )
        outcomes[key] = (status, body, headers)

    ids = {f"req-{i}": f"isolation-trace-{i:04d}" for i in range(4)}
    threads = [
        threading.Thread(target=run, args=(key, graphs[i], tid), daemon=True)
        for i, (key, tid) in enumerate(ids.items())
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=15)

    assert set(outcomes) == set(ids)
    for key, tid in ids.items():
        status, body, headers = outcomes[key]
        assert status == 200, f"{key} failed: {body}"
        assert headers[TRACE_HEADER] == tid, f"{key} got someone else's header"
        assert body["trace_id"] == tid, f"{key} got someone else's body id"

    _, debug, _ = request_raw(server.port, "GET", "/debug/traces")
    by_id = {t["trace_id"]: t for t in debug["traces"]}
    for tid in ids.values():
        spans = {s["stage"] for s in by_id[tid]["spans"]}
        assert {"contract_gate", "cache_lookup", "await_result"} <= spans


# -- chaos: victim requests stay attributable ------------------------------


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_worker_crash_logs_and_trace_tagged_with_victim_id(live, graphs, caplog):
    model = CrashOnNthForwardModel(base_model(), crash_on=1, crash_count=1, kill_worker=True)
    server = live(model, stall_timeout_s=0.05)
    victim = "victim-trace-0000000001"
    with caplog.at_level(logging.WARNING, logger="m3d_fault_loc"):
        status, body, headers = request_raw(
            server.port,
            "POST",
            "/localize",
            {"graph": graphs[0].to_json_dict()},
            headers={TRACE_HEADER: victim},
        )
    assert status == 503 and body["error"] == "worker_crashed"
    assert body["trace_id"] == victim and headers[TRACE_HEADER] == victim

    tagged = [
        r
        for r in caplog.records
        if r.getMessage() == "pending_request_failed"
        and getattr(r, "m3d_trace_id", None) == victim
    ]
    assert tagged, "the victim's failure must be logged with its trace id"
    assert tagged[0].m3d_fields["error"] == "WorkerCrashedError"

    # the victim's trace finished with the crash status and survives in the ring
    assert wait_until(
        lambda: any(t["trace_id"] == victim for t in server.service.tracer.recent(50))
    )
    trace = {t["trace_id"]: t for t in server.service.tracer.recent(50)}[victim]
    assert trace["status"] == "WorkerCrashedError"

    # after the watchdog restart, the same server keeps serving — with traces
    assert wait_until(
        lambda: server.service.health_snapshot()["status"] in ("ok", "degraded")
    )
    status, body2, _ = request_raw(
        server.port, "POST", "/localize", {"graph": graphs[1].to_json_dict()}
    )
    assert status == 200 and body2["trace_id"]
