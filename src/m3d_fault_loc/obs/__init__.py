"""Observability spine: structured logging, tracing, and run telemetry.

Layers, bottom up:

- :mod:`m3d_fault_loc.obs.context` — contextvar-based trace-id propagation,
  so every log line and span a request touches carries the same id.
- :mod:`m3d_fault_loc.obs.logging` — JSON-lines structured logger over the
  stdlib logging tree (``get_logger(__name__).info("event", field=...)``).
- :mod:`m3d_fault_loc.obs.trace` — per-stage span tracer with a completed-
  trace ring buffer (``/debug/traces``), JSONL export (``--trace-log``)
  through the telemetry writer, and a <5 µs no-op span outside a trace.
- :mod:`m3d_fault_loc.obs.telemetry` — JSONL event streams from training
  and evaluation plus the percentile summarizers behind ``m3d-obs``.
- :mod:`m3d_fault_loc.obs.cli` — the ``m3d-obs`` summarizer CLI.
"""
