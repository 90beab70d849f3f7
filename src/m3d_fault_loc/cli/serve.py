"""Serve the delay-fault localizer over HTTP.

Usage::

    PYTHONPATH=src python -m m3d_fault_loc.cli.serve --model runs/localizer.npz --port 8080

``--model`` is the ``.npz`` artifact the process serves for its whole life;
to change models, boot a replica on the new artifact behind ``m3d-route``
and SIGTERM the old one. ``--port 0`` binds an ephemeral port; the chosen
address is printed as ``serving on http://host:port`` so harnesses (CI
smoke, tests) can parse it.

``SIGTERM`` (and ``SIGINT``/Ctrl-C) triggers a graceful drain: admission
stops (new requests get 503), the listener stops accepting, queued requests
complete — or fail deterministically — within ``--drain-deadline-s``, and
the process exits 0. That is the contract a rolling restart relies on.

Observability: structured JSON logs go to stderr (``--log-level`` picks the
threshold), the most recent request traces are served by
``GET /debug/traces``, and ``--trace-log`` appends every completed trace as
JSONL; ``m3d-obs trace LOG --top N`` lists the slowest requests in it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from m3d_fault_loc.cli import argtypes
from m3d_fault_loc.cli.process import add_process_flags, configure_process, serve_until_drained
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.serve.server import DEFAULT_MAX_BODY_BYTES, create_server
from m3d_fault_loc.serve.service import LocalizationService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", type=Path, required=True,
                        help="the .npz localizer artifact to serve")
    parser.add_argument("--port", type=argtypes.port_number, default=8361,
                        help="TCP port (0 binds an ephemeral port)")
    parser.add_argument("--cache-size", type=int, default=1024,
                        help="result-cache capacity (content-hash LRU entries)")
    parser.add_argument("--max-queue", type=int, default=256,
                        help="admission queue bound; beyond it requests are shed (429)")
    parser.add_argument("--workers", type=int, default=1, choices=[1],
                        help="workers per process (only 1; scale out with "
                             "more m3d-serve replicas behind m3d-route)")
    parser.add_argument("--request-timeout-s", type=float, default=30.0,
                        help="default per-request deadline (504 past it)")
    parser.add_argument("--max-body-bytes", type=int, default=DEFAULT_MAX_BODY_BYTES,
                        help="largest accepted request body (413 beyond it)")
    add_process_flags(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tracer = configure_process(args, process="replica")
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
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
            cache_size=args.cache_size,
            max_queue=args.max_queue,
            request_timeout_s=args.request_timeout_s,
            drain_deadline_s=args.drain_deadline_s,
            tracer=tracer,
        )
        server = create_server(
            service, host=args.host, port=args.port, max_body_bytes=args.max_body_bytes
        )
    except OSError as exc:  # port in use, unknown host
        print(f"bind error: {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # The bound port is only known here (``--port 0`` resolves at bind time).
    tracer.tags["addr"] = f"{args.host}:{server.port}"
    info = service.describe_model()
    return serve_until_drained(server, service, tracer, args.drain_deadline_s, [
        f"model: {info['name']}/{info['version']} (sha256 {info['sha256'][:12]}…)",
        f"serving on http://{args.host}:{server.port}",
    ])


if __name__ == "__main__":
    sys.exit(main())
