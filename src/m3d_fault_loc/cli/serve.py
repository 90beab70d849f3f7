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
import sys
from pathlib import Path

from m3d_fault_loc.cli import argtypes
from m3d_fault_loc.cli.process import add_process_flags, configure_process, serve_until_drained
from m3d_fault_loc.model.localizer import DelayFaultLocalizer, ModelArtifactError
from m3d_fault_loc.serve.registry import ModelRegistry, ModelRegistryError
from m3d_fault_loc.serve.server import DEFAULT_MAX_BODY_BYTES, create_server
from m3d_fault_loc.serve.service import LocalizationService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", type=Path, default=None,
                        help="serve a fixed .npz localizer artifact")
    source.add_argument("--registry", type=Path, default=None,
                        help="serve the registry's active model, with hot reload")
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
            cache_size=args.cache_size,
            max_queue=args.max_queue,
            request_timeout_s=args.request_timeout_s,
            drain_deadline_s=args.drain_deadline_s,
            tracer=tracer,
        )
        # Inner try: the registry's own I/O errors are OSErrors too.
        try:
            server = create_server(
                service, host=args.host, port=args.port, max_body_bytes=args.max_body_bytes
            )
        except OSError as exc:  # port in use, unknown host
            print(f"bind error: {args.host}:{args.port}: {exc}", file=sys.stderr)
            return 2
    except ModelRegistryError as exc:
        print(f"registry error: {exc}", file=sys.stderr)
        return 2
    except ModelArtifactError as exc:  # the registry's active artifact
        print(f"model error: {exc}", file=sys.stderr)
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
