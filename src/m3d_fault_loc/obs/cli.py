"""``m3d-obs`` — summarize observability artifacts from serving and training.

Subcommands:

- ``m3d-obs trace TRACE.jsonl [--top N] [--format json]`` — per-stage
  latency percentiles (p50/p95/p99/max), status counts, and the ``N``
  slowest requests from a ``--trace-log`` file written by the serving
  tracer — where slow-request triage starts.
- ``m3d-obs train METRICS.jsonl [--format json]`` —
  setup time (dataset synthesis and gating), loss / grad-norm /
  epoch-wall-time trajectory, final held-out accuracy,
  and the per-phase profiler table (``m3d-train --profile``) from a
  ``--metrics-log`` file.
- ``m3d-obs stitch ROUTER.jsonl REPLICA.jsonl ... [--slow-ms N]
  [--include-probes] [--format json]`` — join router + replica trace logs
  into per-request cross-process waterfalls (hop order from the router's
  attempt metadata; killed replicas show as missing attempts).
- ``m3d-obs fleet --router HOST:PORT | --replica HOST:PORT ...`` — merged
  fleet metrics snapshot with per-replica breakdown and SLO section, either
  fetched from a router's ``/router/fleet`` or scraped directly.

Exit codes: 0 ok, 2 unreadable/empty input or unreachable fleet.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from m3d_fault_loc.cli import argtypes
from m3d_fault_loc.obs.fleet import FleetScraper, fetch_json, render_fleet_text
from m3d_fault_loc.obs.stitch import render_stitched_text, stitch_files
from m3d_fault_loc.obs.telemetry import (
    UnreadableLogError,
    read_jsonl,
    summarize_traces,
    summarize_training,
)


def _load(path: Path) -> list[dict[str, Any]] | None:
    if not path.exists():
        print(f"m3d-obs: no such file: {path}", file=sys.stderr)
        return None
    records = read_jsonl(path)
    if not records:
        print(f"m3d-obs: no records in {path}", file=sys.stderr)
        return None
    return records


def _print_stage_table(stages: dict[str, dict[str, Any]]) -> None:
    header = f"{'stage':<16} {'count':>6} {'p50ms':>9} {'p95ms':>9} {'p99ms':>9} {'maxms':>9}"
    print(header)
    print("-" * len(header))
    for stage, s in stages.items():
        print(
            f"{stage:<16} {s['count']:>6} {s['p50_ms']:>9.3f} {s['p95_ms']:>9.3f} "
            f"{s['p99_ms']:>9.3f} {s['max_ms']:>9.3f}"
        )


def _cmd_trace(args: argparse.Namespace) -> int:
    records = _load(args.path)
    if records is None:
        return 2
    summary = summarize_traces(records, top=args.top)
    if args.format == "json":
        print(json.dumps(summary, indent=2))
        return 0
    total = summary["total"]
    print(
        f"{summary['traces']} traces  "
        f"p50 {total['p50_ms']:.3f} ms  p95 {total['p95_ms']:.3f} ms  "
        f"p99 {total['p99_ms']:.3f} ms  max {total['max_ms']:.3f} ms"
    )
    print(f"statuses: {summary['statuses']}")
    print()
    _print_stage_table(summary["stages"])
    if summary["slowest"]:
        print()
        print(f"slowest {len(summary['slowest'])}:")
        for t in summary["slowest"]:
            print(
                f"  {t['duration_ms']:>10.3f} ms  {t['status']:<20} "
                f"{t['trace_id']}  ({t['name']})"
            )
    return 0


def _print_profile_table(profile: dict[str, dict[str, Any]]) -> None:
    has_memory = any("peak_kb" in row for row in profile.values())
    header = f"{'phase':<16} {'wall_s':>10} {'share':>7} {'calls':>8}"
    if has_memory:
        header += f" {'peak_kb':>10}"
    print(header)
    print("-" * len(header))
    for name, row in profile.items():
        line = f"{name:<16} {row['wall_s']:>10.4f} {row['share']:>6.1%} {row['calls']:>8}"
        if has_memory:
            peak = row.get("peak_kb")
            line += f" {peak:>10.1f}" if peak is not None else f" {'-':>10}"
        print(line)


def _setup_line(setup: dict[str, Any]) -> str:
    """One line for the ``setup`` record: where the time before epoch 0 went."""
    verb = "read" if setup.get("source") == "data_dir" else "generated"
    return (
        f"setup: {setup.get('n_graphs')} graphs ({setup.get('scenario')}) "
        f"{verb} in {float(setup.get('generate_s', 0.0)):.3f} s, "
        f"gated in {float(setup.get('gate_s', 0.0)):.3f} s"
    )


def _cmd_train(args: argparse.Namespace) -> int:
    records = _load(args.path)
    if records is None:
        return 2
    summary = summarize_training(records)
    if args.format == "json":
        print(json.dumps(summary, indent=2))
        return 0
    if "setup" in summary:
        print(_setup_line(summary["setup"]))
    print(
        f"{summary['epochs']} epochs  "
        f"loss {summary['first_loss']} -> {summary['last_loss']} "
        f"(best {summary['best_loss']})"
    )
    if summary["mean_epoch_wall_s"] is not None:
        print(f"mean epoch wall time: {summary['mean_epoch_wall_s']} s")
    if summary["max_grad_norm"] is not None:
        print(f"max grad norm: {summary['max_grad_norm']}")
    if "final" in summary:
        print(f"final: {summary['final']}")
    for ev in summary.get("evals", ()):
        print(f"eval: {ev}")
    if "profile" in summary:
        print()
        _print_profile_table(summary["profile"])
    return 0


def _cmd_stitch(args: argparse.Namespace) -> int:
    missing = [p for p in args.paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"m3d-obs: no such file: {path}", file=sys.stderr)
        return 2
    stitched = stitch_files(
        args.paths, include_probes=args.include_probes, slow_ms=args.slow_ms
    )
    if args.trace_id is not None:
        stitched = [s for s in stitched if s["trace_id"] == args.trace_id]
    if args.format == "json":
        print(json.dumps(stitched, indent=2))
    else:
        print(render_stitched_text(stitched))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    if not args.replica and args.router is None:
        print("m3d-obs: fleet needs --router and/or --replica", file=sys.stderr)
        return 2
    if args.replica:
        scraper = FleetScraper(
            members=args.replica,
            timeout_s=args.timeout_s,
            availability_objective=args.availability_objective,
            latency_objective_ms=args.latency_objective_ms,
            router_addr=args.router,
        )
        snapshot = scraper.scrape()
    else:
        # No member list: reuse the router's own config via /router/fleet.
        snapshot = fetch_json(args.router, "/router/fleet", args.timeout_s)
        if not isinstance(snapshot, dict):
            print(f"m3d-obs: router unreachable: {args.router}", file=sys.stderr)
            return 2
    if args.format == "json":
        print(json.dumps(snapshot, indent=2))
    else:
        print(render_fleet_text(snapshot))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="m3d-obs", description="Summarize m3d trace and training telemetry logs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="summarize a serving trace log (JSONL)")
    trace.add_argument("path", type=Path)
    trace.add_argument("--top", type=int, default=5, help="slowest requests to list")
    trace.add_argument("--format", choices=("text", "json"), default="text")
    trace.set_defaults(func=_cmd_trace)

    train = sub.add_parser("train", help="summarize a training metrics log (JSONL)")
    train.add_argument("path", type=Path)
    train.add_argument("--format", choices=("text", "json"), default="text")
    train.set_defaults(func=_cmd_train)

    stitch = sub.add_parser(
        "stitch", help="join router + replica trace logs into per-request waterfalls"
    )
    stitch.add_argument("paths", nargs="+", type=Path,
                        help="trace-log JSONL files from any mix of processes")
    stitch.add_argument("--slow-ms", type=float, default=None,
                        help="only requests at least this slow end-to-end")
    stitch.add_argument("--include-probes", action="store_true",
                        help="keep health-prober traffic (probe-… trace ids)")
    stitch.add_argument("--trace-id", default=None, help="only this trace id")
    stitch.add_argument("--format", choices=("text", "json"), default="text")
    stitch.set_defaults(func=_cmd_stitch)

    fleet = sub.add_parser(
        "fleet", help="merged fleet metrics snapshot with SLO section"
    )
    fleet.add_argument("--router", default=None, metavar="HOST:PORT",
                       help="router address; without --replica its /router/fleet "
                            "is fetched directly (reusing its member config)")
    fleet.add_argument("--replica", action="append", default=[], metavar="HOST:PORT",
                       help="replica to scrape (repeatable)")
    fleet.add_argument("--timeout-s", type=argtypes.positive_finite, default=2.0,
                       help="per-member scrape timeout")
    fleet.add_argument("--availability-objective", type=argtypes.fraction, default=0.99,
                       help="fraction of requests that must succeed, in (0, 1)")
    fleet.add_argument("--latency-objective-ms", type=float, default=250.0)
    fleet.add_argument("--format", choices=("text", "json"), default="text")
    fleet.set_defaults(func=_cmd_fleet)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except UnreadableLogError as exc:  # a directory, non-UTF-8 bytes, no permission
        print(f"m3d-obs: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
