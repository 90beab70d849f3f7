"""Write a schema-v2 benchmark record: every workload, plain and traced.

Usage, from the root of a checkout::

    python3 e2ebench/record.py --runs 3 --out e2ebench/records/BENCH_2.json

For every workload in ``BENCHMARK.json`` this runs ``e2ebench/run.py``
``--runs`` times without tracing (seeds ``--seed``, ``--seed``+1, ...) and
once traced (seed ``--seed``), one process at a time. The record keeps the
median of every end-to-end metric together with each run's value, the
traced run's per-layer metrics, and the machine it ran on. A record with a
wrong answer, or one that fails :func:`e2ebench.spec.validate_record`, is
not written and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "e2ebench" / "run.py"
#: A single run.py invocation may take this long before the record gives up.
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, trace: bool) -> dict[str, Any]:
    """One ``run.py`` invocation; returns its parsed last stdout line."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def build_record(spec: dict[str, Any], runs: int, seed: int, progress=print) -> dict[str, Any]:
    from m3d_fault_loc.bench.harness import machine_fingerprint

    from e2ebench.spec import RECORD_SCHEMA_VERSION, validate_result

    workloads: dict[str, Any] = {}
    for w in spec["workloads"]:
        name = w["name"]
        plain = []
        for k in range(runs):
            result = run_once(name, seed + k, False)
            errors = validate_result(result, spec, trace=False)
            if errors:
                raise RuntimeError(f"{name}: {errors}")
            plain.append(result)
            progress(f"{name} seed {seed + k}: " + ", ".join(
                f"{m} {v['value']:.4g}" for m, v in result["metrics"].items()))
        traced = run_once(name, seed, True)
        errors = validate_result(traced, spec, trace=True)
        if errors:
            raise RuntimeError(f"{name} traced: {errors}")
        progress(f"{name} traced: residual_share "
                 f"{traced['metrics']['bench.residual_share']['value']:.4f}")
        everything = [*plain, traced]
        workloads[name] = {
            "why": w["why"],
            "correct": all(r["correct"] for r in everything),
            "attempted": sum(r["attempted"] for r in everything),
            "failed": sum(r["failed"] for r in everything),
            "metrics": {
                m: {
                    "value": statistics.median(r["metrics"][m]["value"] for r in plain),
                    "unit": plain[0]["metrics"][m]["unit"],
                    "runs": [r["metrics"][m]["value"] for r in plain],
                }
                for m in plain[0]["metrics"]
            },
            "layers": traced["metrics"],
        }
    return {
        "schema_version": RECORD_SCHEMA_VERSION,
        "tool": "e2ebench",
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": machine_fingerprint(),
        "config": {
            "runs": runs,
            "seeds": [seed + k for k in range(runs)],
            "traced_seed": seed,
            "run_seconds": spec["run_seconds"],
        },
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=3, help="plain runs per workload")
    parser.add_argument("--seed", type=int, default=2022, help="first workload seed")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from e2ebench.spec import load_spec, validate_record

    spec = load_spec()
    record = build_record(spec, args.runs, args.seed)
    wrong = [name for name, w in record["workloads"].items() if not w["correct"]]
    errors = validate_record(record, spec)
    if wrong or errors:
        for line in [*(f"{name}: wrong answers" for name in wrong), *errors]:
            print(f"e2ebench: {line}", file=sys.stderr)
        return 1
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
