"""Run telemetry: JSONL event streams from training/eval, plus summarizers.

``m3d-train --metrics-log runs/train.jsonl`` appends a setup record (dataset
synthesis and gating time), one record per epoch (loss, gradient norm,
learning rate, wall time) and a final record with the held-out accuracy;
``m3d-evaluate --metrics-log`` appends its hit@k numbers. The same file
format is what ``m3d-obs`` summarizes, and the summarizers double as the
analysis layer for serving trace logs (``--trace-log`` JSONL that
:class:`~m3d_fault_loc.obs.trace.Tracer` appends through the same writer).

Everything is line-oriented JSON on purpose: appends are atomic enough for
crash-resumed runs, and ``grep``/``jq`` keep working when ``m3d-obs`` is
not around.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

#: Percentiles reported for every stage/latency summary.
SUMMARY_PERCENTILES: tuple[float, ...] = (50.0, 95.0, 99.0)


class TelemetryWriter:
    """Append-only JSONL stream (lazily opened): telemetry events through
    :meth:`emit`, finished traces through :meth:`write`."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle: Any = None

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        """Append ``{"ts": ..., "event": event, **fields}`` and return it."""
        record = {"ts": round(time.time(), 6), "event": event, **fields}
        self.write(record)
        return record

    def write(self, record: dict[str, Any]) -> None:
        """Append ``record`` as one JSON line, as is."""
        line = json.dumps(record, default=str)
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                # m3dlint: disable=M3D302 reason=leaf lock lazily opening its own sink
                self._handle = self.path.open("a", encoding="utf-8")
            self._handle.write(line + "\n")  # m3dlint: disable=M3D302 reason=leaf lock
            self._handle.flush()  # m3dlint: disable=M3D302 reason=leaf lock

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> TelemetryWriter:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class UnreadableLogError(OSError):
    """A log path that exists but cannot be read as UTF-8 text: a directory,
    not permitted, or binary bytes. The message names the path."""


def read_jsonl(path: Path | str) -> list[dict[str, Any]]:
    """Parse a JSONL file, skipping blank and torn (half-written) lines.

    A missing file raises :class:`FileNotFoundError` unchanged; any other
    failure to read it as text raises :class:`UnreadableLogError`.
    """
    records: list[dict[str, Any]] = []
    try:
        with Path(path).open(encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    parsed = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a torn tail line from a crashed writer
                if isinstance(parsed, dict):
                    records.append(parsed)
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableLogError(f"cannot read {path}: {exc}") from exc
    return records


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sequence."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def _stage_summary(durations_ms: Sequence[float]) -> dict[str, float | int]:
    summary: dict[str, float | int] = {"count": len(durations_ms)}
    for q in SUMMARY_PERCENTILES:
        summary[f"p{q:g}_ms"] = round(percentile(durations_ms, q), 4)
    summary["max_ms"] = round(max(durations_ms, default=0.0), 4)
    return summary


def summarize_traces(traces: Iterable[dict[str, Any]], top: int = 5) -> dict[str, Any]:
    """Per-stage latency percentiles + slowest requests over a trace stream.

    Accepts the dicts produced by :class:`~m3d_fault_loc.obs.trace.Tracer`
    (ring buffer entries or ``--trace-log`` JSONL lines).
    """
    totals: list[float] = []
    stages: dict[str, list[float]] = {}
    statuses: dict[str, int] = {}
    slowest: list[dict[str, Any]] = []
    n = 0
    for trace in traces:
        n += 1
        duration_ms = float(trace.get("duration_ms", 0.0))
        totals.append(duration_ms)
        status = str(trace.get("status", "unknown"))
        statuses[status] = statuses.get(status, 0) + 1
        for span in trace.get("spans", ()):
            stages.setdefault(str(span.get("stage", "?")), []).append(
                float(span.get("duration_ms", 0.0))
            )
        slowest.append(
            {
                "trace_id": trace.get("trace_id"),
                "duration_ms": duration_ms,
                "status": status,
                "name": trace.get("name"),
            }
        )
    slowest.sort(key=lambda t: t["duration_ms"], reverse=True)
    return {
        "traces": n,
        "total": _stage_summary(totals),
        "stages": {stage: _stage_summary(ds) for stage, ds in sorted(stages.items())},
        "statuses": dict(sorted(statuses.items())),
        "slowest": slowest[: max(0, top)],
    }


def summarize_training(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Setup time and loss/grad-norm/wall-time trajectory of a ``--metrics-log`` run."""
    epochs: list[dict[str, Any]] = []
    setup: dict[str, Any] | None = None
    final: dict[str, Any] | None = None
    evals: list[dict[str, Any]] = []
    profiles: list[dict[str, Any]] = []
    for record in records:
        event = record.get("event")
        if event == "epoch":
            epochs.append(record)
        elif event == "setup":
            setup = record
        elif event == "final":
            final = record
        elif event == "eval":
            evals.append(record)
        elif event == "profile":
            profiles.append(record)
    losses = [float(e["loss"]) for e in epochs if "loss" in e]
    walls = [float(e["wall_s"]) for e in epochs if "wall_s" in e]
    norms = [float(e["grad_norm"]) for e in epochs if "grad_norm" in e]
    summary: dict[str, Any] = {
        "epochs": len(epochs),
        "first_loss": losses[0] if losses else None,
        "last_loss": losses[-1] if losses else None,
        "best_loss": min(losses) if losses else None,
        "mean_epoch_wall_s": round(sum(walls) / len(walls), 4) if walls else None,
        "max_grad_norm": round(max(norms), 4) if norms else None,
    }
    if setup is not None:
        summary["setup"] = {k: v for k, v in setup.items() if k not in ("ts", "event")}
    if final is not None:
        summary["final"] = {
            k: v for k, v in final.items() if k not in ("ts", "event")
        }
    if evals:
        summary["evals"] = [
            {k: v for k, v in e.items() if k not in ("ts", "event")} for e in evals
        ]
    if profiles:
        summary["profile"] = _summarize_profile(profiles)
    return summary


def _summarize_profile(profiles: Sequence[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Aggregate per-epoch ``profile`` rows (``m3d-train --profile``) by phase."""
    by_phase: dict[str, dict[str, Any]] = {}
    for row in profiles:
        name = str(row.get("phase", "?"))
        agg = by_phase.setdefault(
            name, {"wall_s": 0.0, "calls": 0, "epochs": 0, "peak_kb": None}
        )
        agg["wall_s"] += float(row.get("wall_s", 0.0))
        agg["calls"] += int(row.get("calls", 0))
        agg["epochs"] += 1
        if "peak_kb" in row:
            peak = float(row["peak_kb"])
            if agg["peak_kb"] is None or peak > agg["peak_kb"]:
                agg["peak_kb"] = peak
    total_wall = sum(agg["wall_s"] for agg in by_phase.values())
    for agg in by_phase.values():
        agg["wall_s"] = round(agg["wall_s"], 6)
        agg["share"] = round(agg["wall_s"] / total_wall, 4) if total_wall > 0 else 0.0
        if agg["peak_kb"] is None:
            del agg["peak_kb"]
    return dict(sorted(by_phase.items(), key=lambda kv: kv[1]["wall_s"], reverse=True))
