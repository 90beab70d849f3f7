"""Serve the delay-fault localizer over HTTP.

Usage::

    PYTHONPATH=src python -m m3d_fault_loc.cli.serve --model runs/localizer.npz
    PYTHONPATH=src python -m m3d_fault_loc.cli.serve --registry runs/registry --port 8080

Exactly one model source is required: ``--model`` serves a fixed ``.npz``
artifact, ``--registry`` serves the registry's active version and hot-reloads
whenever the activation pointer changes. ``--port 0`` binds an ephemeral
port; the chosen address is printed as ``serving on http://host:port`` so
harnesses (CI smoke, tests) can parse it.

``SIGTERM`` (and ``SIGINT``/Ctrl-C) triggers a graceful drain: admission
stops (new requests get 503), the listener stops accepting, queued requests
complete — or fail deterministically — within ``--drain-deadline-s``, and
the process exits 0. That is the contract a rolling restart relies on.

Observability: structured JSON logs go to stderr (``--log-level`` picks the
threshold), completed request traces can be appended as JSONL with
``--trace-log``, and requests slower than ``--slow-ms`` land in the
slow-request ring exposed by ``GET /debug/traces``.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path
from types import FrameType

from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.obs.logging import configure_json_logging
from m3d_fault_loc.obs.trace import JsonlTraceExporter, Tracer
from m3d_fault_loc.serve.registry import ModelRegistry, ModelRegistryError
from m3d_fault_loc.serve.server import DEFAULT_MAX_BODY_BYTES, LocalizationHTTPServer, create_server
from m3d_fault_loc.serve.service import LocalizationService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", type=Path, default=None,
                        help="serve a fixed .npz localizer artifact")
    source.add_argument("--registry", type=Path, default=None,
                        help="serve the registry's active model, with hot reload")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8361,
                        help="TCP port (0 binds an ephemeral port)")
    parser.add_argument("--max-batch", type=int, default=16,
                        help="largest micro-batch per forward pass")
    parser.add_argument("--cache-size", type=int, default=1024,
                        help="result-cache capacity (content-hash LRU entries)")
    parser.add_argument("--max-queue", type=int, default=256,
                        help="admission queue bound; beyond it requests are shed (429)")
    parser.add_argument("--workers", type=int, default=1, choices=[1],
                        help="batch workers per process (only 1; scale out with "
                             "more m3d-serve replicas behind m3d-route)")
    parser.add_argument("--request-timeout-s", type=float, default=30.0,
                        help="default per-request deadline (504 past it)")
    parser.add_argument("--max-body-bytes", type=int, default=DEFAULT_MAX_BODY_BYTES,
                        help="largest accepted request body (413 beyond it)")
    parser.add_argument("--drain-deadline-s", type=float, default=10.0,
                        help="graceful-shutdown drain budget on SIGTERM/SIGINT")
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warning", "error"),
                        help="structured-log threshold (JSON lines on stderr)")
    parser.add_argument("--trace-log", type=Path, default=None,
                        help="append completed request traces to this JSONL file")
    parser.add_argument("--slow-ms", type=float, default=None,
                        help="requests slower than this land in the slow-request ring")
    parser.add_argument("--trace-capacity", type=int, default=256,
                        help="completed traces kept in memory for /debug/traces")
    return parser


def build_tracer(args: argparse.Namespace) -> Tracer:
    """The request tracer implied by ``--trace-log``/``--slow-ms``/capacity."""
    exporter = None if args.trace_log is None else JsonlTraceExporter(args.trace_log)
    slow_s = None if args.slow_ms is None else args.slow_ms / 1e3
    return Tracer(
        capacity=args.trace_capacity, exporter=exporter, slow_threshold_s=slow_s
    )


def drain_and_stop(
    server: LocalizationHTTPServer, service: LocalizationService, drain_deadline_s: float
) -> None:
    """The graceful-shutdown sequence (shared by signal handlers and tests).

    Order matters: stop admission first (late requests get a structured
    503), then stop the accept loop, then drain the queue within the
    deadline — leftovers are failed deterministically, never stranded.
    """
    service.begin_drain()
    server.shutdown()
    service.await_drain(drain_deadline_s)


def install_signal_handlers(
    server: LocalizationHTTPServer, service: LocalizationService, drain_deadline_s: float
) -> None:
    """Route SIGTERM/SIGINT into one graceful drain (idempotent)."""
    # m3dlint: disable=M3D303 reason=one-shot process-lifetime latch, installed once
    triggered = threading.Event()

    def handle(signum: int, frame: FrameType | None) -> None:
        if triggered.is_set():
            return
        triggered.set()
        print(f"received signal {signum}; draining...", flush=True)
        # A thread, not inline: server.shutdown() must not run on the
        # serve_forever thread the signal interrupted.
        threading.Thread(
            target=drain_and_stop,
            args=(server, service, drain_deadline_s),
            name="m3d-serve-drain",
            daemon=True,
        ).start()

    signal.signal(signal.SIGTERM, handle)
    signal.signal(signal.SIGINT, handle)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_json_logging(stream=sys.stderr, level=args.log_level.upper())
    tracer = build_tracer(args)
    model = None
    if args.model is not None:
        if not args.model.exists():
            print(f"no such model file: {args.model}", file=sys.stderr)
            return 2
        try:
            model = DelayFaultLocalizer.load(args.model)
        except ValueError as exc:
            print(f"model error: {exc}", file=sys.stderr)
            return 2
    try:
        service = LocalizationService(
            model=model,
            registry=None if args.registry is None else ModelRegistry(args.registry),
            max_batch=args.max_batch,
            cache_size=args.cache_size,
            max_queue=args.max_queue,
            request_timeout_s=args.request_timeout_s,
            drain_deadline_s=args.drain_deadline_s,
            tracer=tracer,
        )
        server = create_server(
            service, host=args.host, port=args.port, max_body_bytes=args.max_body_bytes
        )
    except ModelRegistryError as exc:
        print(f"registry error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # Identity tags for cross-process stitching; the bound port is only
    # known here (``--port 0`` resolves at bind time).
    tracer.tags.update({"process": "replica", "addr": f"{args.host}:{server.port}"})
    install_signal_handlers(server, service, args.drain_deadline_s)
    info = service.describe_model()
    print(f"model: {info['name']}/{info['version']} (sha256 {info['sha256'][:12]}…)", flush=True)
    print(f"serving on http://{args.host}:{server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        drain_and_stop(server, service, args.drain_deadline_s)
    finally:
        server.server_close()
        service.close()
        if tracer.exporter is not None:
            tracer.exporter.close()
    print("drained; exiting", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
