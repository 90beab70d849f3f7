"""The process shell ``m3d-serve`` and ``m3d-route`` share.

- :func:`add_process_flags` — the flags every server takes (``--host``,
  ``--drain-deadline-s``, ``--log-level``, ``--trace-log``, ``--slow-ms``,
  ``--trace-capacity``);
- :func:`configure_process` — JSON logs on stderr and the tracer, tagged
  with the process identity ``m3d-obs stitch`` joins on;
- :func:`serve_until_drained` — the banner, the serve loop, and the
  SIGTERM/SIGINT drain: admission off, accept loop stopped, in-flight work
  finished within ``--drain-deadline-s``, exit 0.

Each CLI keeps only its own flags and wiring. Stdout is the harness
protocol (``serving on …``/``routing on …``, ``received signal N;
draining...``, ``drained; exiting``); logs go to stderr.
"""

from __future__ import annotations

import argparse
import math
import signal
import sys
import threading
from pathlib import Path
from types import FrameType
from typing import Any, Protocol

from m3d_fault_loc.obs.logging import configure_json_logging
from m3d_fault_loc.obs.trace import JsonlTraceExporter, Tracer
from m3d_fault_loc.serve.http import ThreadedHTTPServer


class Drainable(Protocol):
    """What a server process drains on SIGTERM (the service or the router)."""

    def begin_drain(self) -> None: ...

    def await_drain(self, deadline_s: float) -> Any: ...

    def close(self) -> None: ...


def add_process_flags(parser: argparse.ArgumentParser) -> None:
    """The flags every server process takes."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--drain-deadline-s", type=float, default=10.0,
                        help="graceful-shutdown drain budget on SIGTERM/SIGINT")
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warning", "error"),
                        help="structured-log threshold (JSON lines on stderr)")
    parser.add_argument("--trace-log", type=Path, default=None,
                        help="append completed traces to this JSONL file")
    parser.add_argument("--slow-ms", type=float, default=None,
                        help="traces slower than this land in the slow-trace ring")
    parser.add_argument("--trace-capacity", type=int, default=256,
                        help="completed traces kept in memory")


def configure_process(args: argparse.Namespace, **tags: Any) -> Tracer:
    """JSON logs on stderr at ``--log-level``, and the tracer the trace
    flags ask for, stamped with identity ``tags`` for ``m3d-obs stitch``.

    Raises ``ValueError`` for a drain deadline or trace capacity out of
    range, so the CLI can answer it with one ``config error:`` line.
    """
    configure_json_logging(stream=sys.stderr, level=args.log_level.upper())
    drain_s = args.drain_deadline_s
    if not (math.isfinite(drain_s) and drain_s > 0):
        raise ValueError(f"drain_deadline_s must be a finite number > 0, got {drain_s}")
    exporter = None if args.trace_log is None else JsonlTraceExporter(args.trace_log)
    slow_s = None if args.slow_ms is None else args.slow_ms / 1e3
    return Tracer(
        capacity=args.trace_capacity, exporter=exporter, slow_threshold_s=slow_s, tags=tags
    )


def serve_until_drained(
    server: ThreadedHTTPServer,
    target: Drainable,
    tracer: Tracer,
    drain_deadline_s: float,
    banner: list[str],
) -> int:
    """Print ``banner``, serve until SIGTERM/SIGINT, drain, and return 0.

    The drain order matters: admission stops first (late requests get a
    structured 503), then the accept loop, then in-flight work finishes
    within ``drain_deadline_s`` — leftovers fail deterministically, never
    stranded. The wait runs here, on the main thread, so the process does
    not exit while a request is still in flight.
    """
    # m3dlint: disable=M3D303 reason=one-shot process-lifetime latch, installed once
    triggered = threading.Event()

    def stop_accepting() -> None:
        target.begin_drain()
        server.shutdown()

    def handle(signum: int, frame: FrameType | None) -> None:
        if triggered.is_set():
            return
        triggered.set()
        print(f"received signal {signum}; draining...", flush=True)
        # A thread, not inline: server.shutdown() must not run on the
        # serve_forever thread the signal interrupted.
        threading.Thread(target=stop_accepting, name="m3d-drain", daemon=True).start()

    signal.signal(signal.SIGTERM, handle)
    signal.signal(signal.SIGINT, handle)
    for line in banner:
        print(line, flush=True)
    try:
        server.serve_forever()
        target.await_drain(drain_deadline_s)
    finally:
        server.server_close()
        target.close()
        if tracer.exporter is not None:
            tracer.exporter.close()
    print("drained; exiting", flush=True)
    return 0
