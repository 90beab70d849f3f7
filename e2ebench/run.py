"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload serve_small_hot --seed 7 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate traced run that measures the per-layer metrics.
``--smoke`` shrinks the workload to a few seconds (for tests, not numbers).

Each metric is printed as ``name value unit``; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 when every answer was right, 1 when any was wrong, 2 when the
checkout has no program to run.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs and pools: checks the wiring in seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "m3d_fault_loc").is_dir():
        print(f"e2ebench: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so every server this run started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from e2ebench import runner, spec

    bench_spec = spec.load_spec()
    names = [w["name"] for w in bench_spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else bench_spec["run_seconds"]
    outcome = runner.run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)

    wanted = spec.units(bench_spec, bool(args.trace))
    # A layer that does not run on this workload did no work: it reads 0.
    values = {name: outcome.values.get(name, 0.0) if args.trace else outcome.values[name]
              for name in wanted}
    for name, value in values.items():
        print(f"{name} {value:.6g} {wanted[name]}")
    for key, value in outcome.info.items():
        print(f"# {key} {value}")
    for note in outcome.notes:
        print(f"e2ebench: wrong answer: {note}", file=sys.stderr)
    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": wanted[name]} for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
