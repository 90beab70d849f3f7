"""Span tracer: lifecycle, ring buffer, trace-log sink, and the no-op budget."""

import json
import threading
import time

import pytest

from m3d_fault_loc.obs.context import NULL_CONTEXT, trace_context
from m3d_fault_loc.obs.stitch import read_trace_files
from m3d_fault_loc.obs.telemetry import TelemetryWriter
from m3d_fault_loc.obs.trace import Tracer


def test_trace_records_spans_with_durations():
    tracer = Tracer()
    with tracer.trace("localize", trace_id="t" * 8, graph="g1"):
        with tracer.span("contract_gate", trace_id="t" * 8):
            time.sleep(0.002)
        tracer.record("t" * 8, "batch_infer", 0.005, parent="await_result", batch=3)
    (finished,) = tracer.recent()
    assert finished["trace_id"] == "t" * 8
    assert finished["status"] == "ok"
    assert finished["meta"] == {"graph": "g1"}
    stages = {s["stage"]: s for s in finished["spans"]}
    assert stages["contract_gate"]["duration_ms"] >= 1.0
    assert stages["batch_infer"]["duration_ms"] == 5.0
    assert stages["batch_infer"]["parent"] == "await_result"
    assert stages["batch_infer"]["meta"] == {"batch": 3}
    assert finished["duration_ms"] >= stages["contract_gate"]["duration_ms"]


def test_span_uses_ambient_trace_id():
    tracer = Tracer()
    with trace_context("ambient-id-123"):
        with tracer.trace("localize"):
            with tracer.span("cache_lookup"):
                pass
    (finished,) = tracer.recent()
    assert finished["trace_id"] == "ambient-id-123"
    assert finished["spans"][0]["stage"] == "cache_lookup"


def test_exception_sets_status_and_span_error():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.trace("localize", trace_id="boom1234"):
            with tracer.span("contract_gate", trace_id="boom1234"):
                raise ValueError("nope")
    (finished,) = tracer.recent()
    assert finished["status"] == "ValueError"
    assert finished["spans"][0]["meta"]["error"] == "ValueError"


def test_ring_buffer_bounded_and_newest_first():
    tracer = Tracer(capacity=3)
    for i in range(5):
        with tracer.trace("r", trace_id=f"trace-{i:04d}"):
            pass
    recent = tracer.recent()
    assert [t["trace_id"] for t in recent] == ["trace-0004", "trace-0003", "trace-0002"]
    assert tracer.stats()["completed"] == 3


def test_record_for_unknown_trace_dropped_not_raised():
    tracer = Tracer()
    tracer.record("never-started", "queue_wait", 0.001)
    assert tracer.stats()["dropped_spans"] == 1
    assert tracer.recent() == []


def test_trace_log_sink_appends_completed_traces(tmp_path):
    path = tmp_path / "traces.jsonl"
    tracer = Tracer(sink=TelemetryWriter(path), tags={"process": "replica"})
    for i in range(2):
        with tracer.trace("localize", trace_id=f"export-{i:03d}", graph="g"):
            tracer.record(f"export-{i:03d}", "batch_infer", 0.001)
    tracer.sink.close()
    # one line per trace: the finished dict as is, `json.dumps(..., default=str)`
    assert path.read_text().splitlines() == [
        json.dumps(t, default=str) for t in reversed(tracer.recent())
    ]
    records = read_trace_files([path])
    assert [t["trace_id"] for t in records] == ["export-000", "export-001"]
    assert all(
        set(t) == {"trace_id", "name", "status", "started_at", "duration_ms", "meta",
                   "spans", "tags"}
        for t in records
    )
    assert records[0]["spans"][0]["stage"] == "batch_infer"
    assert records[0]["tags"] == {"process": "replica"}


def test_unwritable_trace_log_never_fails_the_request(tmp_path):
    tracer = Tracer(sink=TelemetryWriter(tmp_path))  # a directory: open() raises
    with tracer.trace("localize", trace_id="disk-full-1"):
        pass
    assert [t["trace_id"] for t in tracer.recent()] == ["disk-full-1"]


def test_concurrent_traces_do_not_mix_spans():
    tracer = Tracer()
    errors = []

    def run(i):
        tid = f"thread-{i:04d}"
        try:
            with tracer.trace("localize", trace_id=tid):
                for _ in range(20):
                    tracer.record(tid, "stage", 0.0001, idx=i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for finished in tracer.recent(8):
        i = int(finished["trace_id"].split("-")[1])
        assert len(finished["spans"]) == 20
        assert all(s["meta"]["idx"] == i for s in finished["spans"])


def test_span_without_trace_noop_overhead_under_5us():
    tracer = Tracer()
    assert tracer.span("queue_wait") is NULL_CONTEXT
    n = 20_000
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("queue_wait"):
            pass
    per_span_s = (time.perf_counter() - t0) / n
    assert per_span_s < 5e-6, f"no-op span cost {per_span_s * 1e6:.2f}µs, budget 5µs"
    assert tracer.recent() == []
    assert tracer.stats() == {"active": 0, "completed": 0, "dropped_spans": 0}


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        Tracer(capacity=0)
