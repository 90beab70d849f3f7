"""``BENCHMARK.json`` and the checks that keep results and records honest.

``BENCHMARK.json`` (at the root of the checkout) names the workloads, the
end-to-end metrics with the bound each may worsen by, and the per-layer
metrics. :data:`LAYER_MOVES` records, for every per-layer metric, which
metric it should move on which workload — written down before measuring,
so a comparison can say which layer explains a change.

A *record* (schema version 2, ``records/BENCH_<n>.json``) holds, per
workload, the end-to-end medians of several plain runs and the per-layer
values of one traced run; :func:`validate_record` rejects a record with a
missing or unknown metric, a wrong unit, or a traced run whose layers leave
more than :data:`RESIDUAL_LIMIT` of the latency unexplained.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
RECORD_SCHEMA_VERSION = 2
#: Largest |residual share| a traced run may leave unattributed.
RESIDUAL_LIMIT = 0.15
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")

SERVE = ("serve_large_miss", "serve_small_hot", "routed_medium_mixed")
ALL = (*SERVE, "train_medium")

#: Per-layer metric -> [(metric it should move, workloads)].
LAYER_MOVES: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    "serve.server.transport_ms": [
        ("p50_ms", ("serve_small_hot",)),
        ("throughput_per_s", ("serve_small_hot",)),
    ],
    "serve.server.stalled_share": [
        ("p50_ms", SERVE),
        ("throughput_per_s", SERVE),
    ],
    "serve.server.health_rtt_ms": [("p50_ms", ("serve_small_hot",))],
    "serve.server.decode_ms": [("p50_ms", ("serve_large_miss",))],
    "serve.server.encode_ms": [("p50_ms", ("serve_small_hot",))],
    "analysis.gate_ms": [
        ("p50_ms", ("serve_large_miss",)),
        ("throughput_per_s", ("serve_large_miss",)),
    ],
    "analysis.gate_replay_ms": [("p50_ms", ("serve_large_miss",))],
    "serve.cache.lookup_ms": [("p50_ms", ("serve_small_hot",))],
    "serve.cache.hit_ratio": [("p50_ms", ("serve_small_hot", "routed_medium_mixed"))],
    "serve.service.queue_wait_ms": [("p50_ms", ("serve_large_miss",))],
    "model.infer_ms": [("p50_ms", ("serve_large_miss",))],
    "model.agg_cache_hit_ratio": [("p50_ms", ("serve_large_miss",))],
    "serve.router.upstream_ms": [("p50_ms", ("routed_medium_mixed",))],
    "serve.router.hop_ms": [("p50_ms", ("routed_medium_mixed",))],
    "serve.router.attempts_mean": [("p95_ms", ("routed_medium_mixed",))],
    "serve.router.owner_share": [("serve.cache.hit_ratio", ("routed_medium_mixed",))],
    "scenarios.generate_s": [("setup_s", ("train_medium",))],
    "analysis.dataset_gate_s": [("setup_s", ("train_medium",))],
    "model.train_data_ms": [("throughput_per_s", ("train_medium",))],
    "model.train_forward_ms": [("throughput_per_s", ("train_medium",))],
    "model.train_backward_ms": [("throughput_per_s", ("train_medium",))],
    "model.optim_step_ms": [("throughput_per_s", ("train_medium",))],
    "model.grad_accum_ms": [("throughput_per_s", ("train_medium",))],
    "bench.client_gap_ms": [("throughput_per_s", SERVE)],
    "bench.e2e_mean_ms": [("p50_ms", ALL)],
    "bench.residual_ms": [("p50_ms", ALL)],
    "bench.residual_share": [("p50_ms", ALL)],
    "bench.trace_overhead_frac": [("p50_ms", ALL)],
}


def load_spec(path: Path = SPEC_PATH) -> dict[str, Any]:
    return json.loads(path.read_text())


def units(spec: dict[str, Any], trace: bool) -> dict[str, str]:
    """Metric name -> unit for the metrics a plain (or traced) run prints."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(
        value
    )


def _check_metrics(where: str, got: Any, want: dict[str, str]) -> list[str]:
    if not isinstance(got, dict):
        return [f"{where}: metrics must be an object"]
    errors = [f"{where}: missing metric {name!r}" for name in want if name not in got]
    errors += [f"{where}: {name!r} is not in BENCHMARK.json" for name in got if name not in want]
    for name, entry in got.items():
        if name not in want:
            continue
        if not isinstance(entry, dict) or not _is_number(entry.get("value")):
            errors.append(f"{where}: {name!r} needs a finite numeric value")
        elif entry.get("unit") != want[name]:
            errors.append(f"{where}: {name!r} unit {entry.get('unit')!r} != {want[name]!r}")
    return errors


def validate_result(result: Any, spec: dict[str, Any], trace: bool) -> list[str]:
    """Check one run's last stdout line against the spec."""
    if not isinstance(result, dict) or sorted(result) != sorted(RESULT_KEYS):
        return [f"result must have exactly the keys {RESULT_KEYS}"]
    errors = []
    if not isinstance(result["correct"], bool):
        errors.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{key} must be a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted must be at least 1")
    return errors + _check_metrics("result", result["metrics"], units(spec, trace))


def validate_record(record: Any, spec: dict[str, Any]) -> list[str]:
    """Check a schema-v2 record: every metric present, named, unit-correct,
    and every traced run's residual within :data:`RESIDUAL_LIMIT`."""
    if not isinstance(record, dict):
        return ["record must be a JSON object"]
    if record.get("schema_version") != RECORD_SCHEMA_VERSION:
        return [f"schema_version must be {RECORD_SCHEMA_VERSION}"]
    workloads = record.get("workloads")
    if not isinstance(workloads, dict):
        return ["missing 'workloads' object"]
    names = [w["name"] for w in spec["workloads"]]
    errors = [f"missing workload {name!r}" for name in names if name not in workloads]
    errors += [f"workload {name!r} is not in BENCHMARK.json" for name in workloads
               if name not in names]
    for name, entry in workloads.items():
        if name not in names:
            continue
        if not isinstance(entry, dict):
            errors.append(f"{name}: must be an object")
            continue
        errors += _check_metrics(f"{name}.metrics", entry.get("metrics"), units(spec, False))
        errors += _check_metrics(f"{name}.layers", entry.get("layers"), units(spec, True))
        share = (entry.get("layers") or {}).get("bench.residual_share", {})
        if isinstance(share, dict) and _is_number(share.get("value")):
            if abs(share["value"]) > RESIDUAL_LIMIT:
                errors.append(
                    f"{name}: |residual_share| {abs(share['value']):.3f} > {RESIDUAL_LIMIT}"
                )
    return errors
