"""Front multiple ``m3d-serve`` replicas with a consistent-hash router.

Usage::

    PYTHONPATH=src python -m m3d_fault_loc.cli.route \\
        --replica 127.0.0.1:8361 --replica 127.0.0.1:8362 --port 8360

Requests are routed by payload hash (repeat graphs hit the replica whose
caches already hold them); a failed replica is retried on the next in
preference order under the idempotency and deadline rules documented in
:mod:`m3d_fault_loc.serve.router`, ejected after consecutive failures, and
readmitted through a half-open health probe. Router-own endpoints live
under ``/router/`` (``/router/healthz``, ``/router/metrics``, and the
federated ``/router/fleet`` snapshot); everything else is proxied.
``--trace-log`` appends one ``route`` trace per proxied request (tagged
``process=router``) for ``m3d-obs stitch`` to join with replica logs.

``SIGTERM``/``SIGINT`` starts the drain cascade's front half: admission
stops (new requests get a structured 503), the accept loop stops, in-flight
proxied requests finish within ``--drain-deadline-s``, and the process
exits 0. The replicas behind it drain the same way on their own SIGTERM —
drain the router first, then the replicas, and no client sees a dropped
connection.

``--port 0`` binds an ephemeral port; the chosen address is printed as
``routing on http://host:port`` so harnesses can parse it.
"""

from __future__ import annotations

import argparse
import sys

from m3d_fault_loc.cli import argtypes
from m3d_fault_loc.cli.process import add_process_flags, configure_process, serve_until_drained
from m3d_fault_loc.serve.router import (
    ReplicaRouter,
    RouterPolicy,
    create_router_server,
    parse_replica_spec,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replica", action="append", required=True, metavar="HOST:PORT",
                        help="backend m3d-serve address (repeat per replica)")
    parser.add_argument("--port", type=argtypes.port_number, default=8360,
                        help="TCP port (0 binds an ephemeral port)")
    parser.add_argument("--attempt-timeout-s", type=float, default=30.0,
                        help="per-attempt socket timeout against a replica")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="attempts across the failover preference list")
    parser.add_argument("--eject-after", type=int, default=3,
                        help="consecutive failures before a replica is ejected")
    parser.add_argument("--cooldown-s", type=float, default=2.0,
                        help="ejection cooldown before the half-open trial")
    parser.add_argument("--probe-interval-s", type=float, default=0.5,
                        help="health-probe cadence (0 disables the prober)")
    parser.add_argument("--probe-timeout-s", type=float, default=2.0,
                        help="socket timeout per health probe")
    parser.add_argument("--default-deadline-s", type=float, default=30.0,
                        help="deadline for requests without X-M3D-Deadline-Ms")
    add_process_flags(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tracer = configure_process(args, process="router")
        policy = RouterPolicy(
            attempt_timeout_s=args.attempt_timeout_s,
            max_attempts=args.max_attempts,
            eject_after=args.eject_after,
            cooldown_s=args.cooldown_s,
            probe_interval_s=args.probe_interval_s if args.probe_interval_s > 0 else None,
            probe_timeout_s=args.probe_timeout_s,
            default_deadline_s=args.default_deadline_s,
        )
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        replicas = [parse_replica_spec(spec) for spec in args.replica]
        router = ReplicaRouter(replicas, policy=policy, tracer=tracer)
    except ValueError as exc:
        print(f"bad replica spec: {exc}", file=sys.stderr)
        return 2
    try:
        server = create_router_server(router, host=args.host, port=args.port)
    except OSError as exc:  # port in use, unknown host
        print(f"bind error: {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    return serve_until_drained(server, router, tracer, args.drain_deadline_s, [
        f"replicas: {', '.join(r.key for r in router.replicas)}",
        f"routing on http://{args.host}:{server.port}",
    ])


if __name__ == "__main__":
    sys.exit(main())
