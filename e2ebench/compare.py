"""Compare two schema-v2 benchmark records and name the layer that moved.

Usage, from the root of a checkout::

    python3 e2ebench/compare.py OLD.json NEW.json

For every (workload, end-to-end metric) this prints the old and new values,
the change as a share of the old value (positive means worse, whichever way
the metric improves), and that share against the metric's bound in
``BENCHMARK.json``. Then, per workload, it lists the per-layer metrics by
how far they moved: time layers by absolute milliseconds, then the other
layer metrics by relative change, each with the metric it should move. The
time layer that moved most is named on its own line.

Exit status: 0 when no end-to-end metric is past its bound, 1 when one is,
2 when a record cannot be read or is invalid.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
TIME_UNITS = {"ms": 1.0, "s": 1e3}


def worse_share(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def compare_records(
    old: dict[str, Any], new: dict[str, Any], spec: dict[str, Any]
) -> tuple[list[dict[str, Any]], dict[str, list[dict[str, Any]]]]:
    """End-to-end rows (with a ``regressed`` flag) and per-workload layer rows.

    Layer rows are ordered for reading: time layers by |change in ms|, then
    the rest by |relative change|; the bench's own bookkeeping metrics
    (``bench.*``) come last since they are not layers.
    """
    from e2ebench.spec import LAYER_MOVES

    rows: list[dict[str, Any]] = []
    layer_rows: dict[str, list[dict[str, Any]]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        old_w, new_w = old["workloads"][workload], new["workloads"][workload]
        for metric in spec["end_to_end"]:
            o = old_w["metrics"][metric["name"]]["value"]
            n = new_w["metrics"][metric["name"]]["value"]
            share = worse_share(o, n, metric["better"])
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "old": o, "new": n, "worse": share, "bound": metric["bound"],
                "regressed": share > metric["bound"],
            })
        moved = []
        for metric in spec["per_layer"]:
            name = metric["name"]
            o = old_w["layers"][name]["value"]
            n = new_w["layers"][name]["value"]
            scale = TIME_UNITS.get(metric["unit"])
            moved.append({
                "layer": name, "unit": metric["unit"], "old": o, "new": n,
                "delta_ms": None if scale is None else (n - o) * scale,
                "relative": (n - o) / abs(o) if o else (0.0 if n == o else float("inf")),
                "moves": LAYER_MOVES.get(name, []),
            })

        def order(row: dict[str, Any]) -> tuple[int, float]:
            if row["layer"].startswith("bench."):
                return (2, -abs(row["relative"]))
            if row["delta_ms"] is not None:
                return (0, -abs(row["delta_ms"]))
            return (1, -abs(row["relative"]))

        layer_rows[workload] = sorted(moved, key=order)
    return rows, layer_rows


def _moves(row: dict[str, Any]) -> str:
    return "; ".join(f"{m} on {', '.join(ws)}" for m, ws in row["moves"])


def render(rows: list[dict[str, Any]], layer_rows: dict[str, list[dict[str, Any]]]) -> str:
    lines = ["end-to-end (worse = change as a share of old, positive is worse)"]
    for r in rows:
        flag = "  << PAST BOUND" if r["regressed"] else ""
        lines.append(
            f"  {r['workload']:<20} {r['metric']:<17} {r['old']:>12.4f} -> {r['new']:>12.4f} "
            f"{r['unit']:<4} worse {r['worse']:+7.2%} / bound {r['bound']:.0%}{flag}"
        )
    for workload, moved in layer_rows.items():
        lines.append(f"{workload}: layers by how far they moved")
        timed = [
            r for r in moved
            if r["delta_ms"] is not None and not r["layer"].startswith("bench.")
        ]
        if timed:
            top = timed[0]
            lines.append(
                f"  layer that moved most: {top['layer']} ({top['delta_ms']:+.3f} ms; "
                f"should move {_moves(top)})"
            )
        for r in moved:
            change = (f"{r['delta_ms']:+10.3f} ms" if r["delta_ms"] is not None
                      else f"{r['relative']:+10.2%}   ")
            lines.append(
                f"  {r['layer']:<32} {r['old']:>11.4f} -> {r['new']:>11.4f} {r['unit']:<8} {change}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from e2ebench.spec import load_spec, validate_record

    spec = load_spec()
    records = []
    for path in (args.old, args.new):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"e2ebench: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        errors = validate_record(record, spec)
        if errors:
            print(f"e2ebench: {path} is not a valid record: {'; '.join(errors[:5])}",
                  file=sys.stderr)
            return 2
        records.append(record)
    rows, layer_rows = compare_records(records[0], records[1], spec)
    print(render(rows, layer_rows))
    past = [r for r in rows if r["regressed"]]
    for r in past:
        print(f"e2ebench: {r['workload']} {r['metric']} is {r['worse']:.1%} worse "
              f"(bound {r['bound']:.0%})", file=sys.stderr)
    return 1 if past else 0


if __name__ == "__main__":
    sys.exit(main())
