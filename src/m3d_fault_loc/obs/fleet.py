"""Metrics federation: one fleet-wide snapshot from N replica ``/metrics``.

The router (and the ``m3d-obs fleet`` CLI) poll every member's
``GET /metrics?format=json`` and ``GET /healthz`` with short per-member
timeouts, then merge the per-replica instruments into a single fleet view:
counters and gauges sum, histograms bucket-merge via
:meth:`~m3d_fault_loc.serve.metrics.Histogram.merge` (identical bounds are
required, so fleet percentiles stay as meaningful as any single replica's).
The per-replica breakdown is kept alongside the merged section — the
federation invariant, pinned by tests, is that the merged counter values
equal the sum of the per-replica values.

Each scrape also feeds a sliding window of snapshots from which the SLO
section is derived: request availability (success ratio from the counters'
deltas across the window), latency-objective attainment (fraction of
requests at or under the objective, interpolated from the merged latency
histogram), and a simple burn rate (observed error rate over the budgeted
error rate). Window timing uses ``time.monotonic()`` — wall clocks are for
display only, never for durations (see m3dlint M3D211).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import deque
from typing import Any, Callable, Sequence

from m3d_fault_loc.serve.metrics import Histogram, _fmt

#: Instrument whose merged buckets drive the latency SLO attainment.
LATENCY_METRIC = "m3d_request_latency_seconds"
REQUESTS_METRIC = "m3d_requests_total"
ERRORS_METRIC = "m3d_request_errors_total"


def fleet_status(up: int, total: int) -> str:
    """``ok`` / ``degraded-<up>-of-<total>`` / ``unhealthy``, or ``empty``
    with no members — the one status vocabulary of the router and the fleet."""
    if total == 0:
        return "empty"
    if up == 0:
        return "unhealthy"
    if up < total:
        return f"degraded-{up}-of-{total}"
    return "ok"


def fetch_json(
    addr: str, path: str, timeout_s: float, headers: dict[str, str] | None = None
) -> Any | None:
    """``GET http://addr{path}`` answered 200, parsed as JSON; ``None`` on
    any failure."""
    host, _, port = addr.rpartition(":")
    try:
        conn = http.client.HTTPConnection(host, int(port), timeout=timeout_s)
    except (OSError, ValueError):
        return None
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            return None
        return json.loads(body)
    except (OSError, ValueError, http.client.HTTPException):
        return None
    finally:
        conn.close()


def _fraction_le(snap: dict[str, Any], bound_s: float) -> float | None:
    """Fraction of a histogram snapshot's observations at or under ``bound_s``.

    Linear interpolation inside the straddling bucket, same model the
    percentile estimator uses — cumulative counts in, a ratio out.
    """
    count = int(snap.get("count", 0))
    if count <= 0:
        return None
    buckets = snap.get("buckets") or {}
    bounds = sorted(float(key) for key in buckets if key != "+Inf")
    previous_bound = 0.0
    previous_cum = 0
    for bound in bounds:
        cumulative = int(buckets[_fmt(bound)])
        if bound >= bound_s:
            width = bound - previous_bound
            frac = (bound_s - previous_bound) / width if width > 0 else 1.0
            inside = previous_cum + (cumulative - previous_cum) * max(0.0, min(1.0, frac))
            return inside / count
        previous_bound = bound
        previous_cum = cumulative
    return previous_cum / count


class FleetScraper:
    """Polls fleet members and folds their metrics into one snapshot.

    ``members`` is the router's replica key list (``host:port`` strings).
    ``router_metrics_fn`` lets an in-process host (the router serving
    ``/router/fleet``) contribute its own registry without an HTTP hop;
    ``router_addr`` does the same over HTTP for the CLI.
    """

    def __init__(
        self,
        members: Sequence[str],
        timeout_s: float = 2.0,
        window: int = 32,
        availability_objective: float = 0.99,
        latency_objective_ms: float = 250.0,
        router_metrics_fn: Callable[[], dict[str, Any]] | None = None,
        router_addr: str | None = None,
    ):
        if not 0.0 < availability_objective < 1.0:
            raise ValueError("availability objective must be in (0, 1)")
        self.members = list(members)
        self.timeout_s = timeout_s
        self.availability_objective = availability_objective
        self.latency_objective_ms = latency_objective_ms
        self.router_metrics_fn = router_metrics_fn
        self.router_addr = router_addr
        self._window: deque[dict[str, float]] = deque(maxlen=max(2, window))
        self._lock = threading.Lock()

    # -- scraping ----------------------------------------------------------

    def _scrape_member(self, addr: str) -> dict[str, Any]:
        metrics = fetch_json(addr, "/metrics?format=json", self.timeout_s)
        health = fetch_json(addr, "/healthz", self.timeout_s)
        reachable = metrics is not None
        status = "unreachable"
        if isinstance(health, dict):
            status = str(health.get("status", "unknown"))
        elif reachable:
            status = "unknown"
        return {
            "replica": addr,
            "reachable": reachable,
            "status": status,
            "metrics": metrics if isinstance(metrics, dict) else {},
        }

    @staticmethod
    def merge_metrics(replicas: Sequence[dict[str, Any]]) -> dict[str, Any]:
        """Sum counters/gauges and bucket-merge histograms across replicas.

        Series merge by id (name plus labels); a labelled series keeps its
        ``"labels"`` object, as in each replica's own export.
        """
        merged: dict[str, Any] = {}
        histograms: dict[str, Histogram] = {}
        labels: dict[str, Any] = {}
        for entry in replicas:
            for name, inst in entry.get("metrics", {}).items():
                kind = inst.get("type")
                if "labels" in inst:
                    labels.setdefault(name, inst["labels"])
                if kind in ("counter", "gauge"):
                    if name not in merged:
                        merged[name] = {"type": kind, "value": 0.0}
                    merged[name]["value"] += float(inst.get("value", 0.0))
                elif kind == "histogram":
                    incoming = Histogram.from_snapshot(name, inst)
                    if name in histograms:
                        histograms[name].merge(incoming)
                    else:
                        histograms[name] = incoming
                elif kind == "state_gauge":
                    if name not in merged:
                        merged[name] = {"type": kind, "states": {}}
                    state = str(inst.get("state", "unknown"))
                    states = merged[name]["states"]
                    states[state] = states.get(state, 0) + 1
        for name, histogram in histograms.items():
            snap = histogram.snapshot()
            merged[name] = {
                "type": "histogram",
                **snap,
                "p50_ms": round(histogram.percentile(50.0) * 1e3, 3),
                "p99_ms": round(histogram.percentile(99.0) * 1e3, 3),
            }
        for name, series_labels in labels.items():
            if name in merged:
                merged[name]["labels"] = series_labels
        return dict(sorted(merged.items()))

    def scrape(self) -> dict[str, Any]:
        """One federation pass: poll members, merge, derive status + SLO."""
        replicas = [self._scrape_member(addr) for addr in self.members]
        merged = self.merge_metrics(replicas)

        total = len(replicas)
        reachable = sum(1 for r in replicas if r["reachable"])

        router: dict[str, Any] | None = None
        if self.router_metrics_fn is not None:
            router = self.router_metrics_fn()
        elif self.router_addr is not None:
            fetched = fetch_json(self.router_addr, "/router/metrics", self.timeout_s)
            router = fetched if isinstance(fetched, dict) else None

        snapshot = {
            "ts": round(time.time(), 6),
            "members": total,
            "reachable": reachable,
            "status": fleet_status(reachable, total),
            "replicas": replicas,
            "merged": merged,
            "router": router,
            "slo": self._update_slo(replicas, merged),
        }
        return snapshot

    # -- SLO window --------------------------------------------------------

    def _update_slo(
        self, replicas: Sequence[dict[str, Any]], merged: dict[str, Any]
    ) -> dict[str, Any]:
        requests = float(merged.get(REQUESTS_METRIC, {}).get("value", 0.0))
        errors = float(merged.get(ERRORS_METRIC, {}).get("value", 0.0))
        point = {
            "mono": time.monotonic(),
            "requests": requests,
            "errors": errors,
            "reachable_frac": (
                sum(1 for r in replicas if r["reachable"]) / len(replicas)
                if replicas
                else 0.0
            ),
        }
        with self._lock:
            self._window.append(point)
            window = list(self._window)

        # Availability over the window from counter deltas (falls back to
        # the reachability fraction before any requests have flowed).
        oldest, newest = window[0], window[-1]
        d_requests = max(0.0, newest["requests"] - oldest["requests"])
        d_errors = max(0.0, newest["errors"] - oldest["errors"])
        if d_requests > 0:
            availability = 1.0 - min(1.0, d_errors / d_requests)
        elif newest["requests"] > 0:
            availability = 1.0 - min(1.0, newest["errors"] / newest["requests"])
        else:
            availability = sum(p["reachable_frac"] for p in window) / len(window)

        latency_snap = merged.get(LATENCY_METRIC)
        attainment = (
            _fraction_le(latency_snap, self.latency_objective_ms / 1e3)
            if isinstance(latency_snap, dict)
            else None
        )

        budget = 1.0 - self.availability_objective
        burn_rate = round((1.0 - availability) / budget, 3)
        slo: dict[str, Any] = {
            "availability": round(availability, 6),
            "availability_objective": self.availability_objective,
            "burn_rate": burn_rate,
            "latency_objective_ms": self.latency_objective_ms,
            "window_points": len(window),
            "window_span_s": round(newest["mono"] - oldest["mono"], 3),
        }
        if attainment is not None:
            slo["latency_attainment"] = round(attainment, 6)
        return slo


def render_fleet_text(snapshot: dict[str, Any]) -> str:
    """Human-oriented fleet summary for ``m3d-obs fleet``."""
    lines = [
        f"fleet: {snapshot['status']}  "
        f"({snapshot['reachable']}/{snapshot['members']} reachable)"
    ]
    for replica in snapshot["replicas"]:
        requests = replica.get("metrics", {}).get(REQUESTS_METRIC, {}).get("value")
        extra = f"  requests={_fmt(requests)}" if requests is not None else ""
        lines.append(
            f"  {replica['replica']:<22} "
            f"{'up' if replica['reachable'] else 'DOWN':<5} {replica['status']}{extra}"
        )
    merged = snapshot.get("merged", {})
    latency = merged.get(LATENCY_METRIC)
    if isinstance(latency, dict) and latency.get("count"):
        lines.append(
            f"latency (merged): p50={latency['p50_ms']} ms  "
            f"p99={latency['p99_ms']} ms  n={latency['count']}"
        )
    for name in (REQUESTS_METRIC, ERRORS_METRIC):
        if name in merged:
            lines.append(f"{name}: {_fmt(merged[name]['value'])}")
    slo = snapshot.get("slo", {})
    if slo:
        attainment = slo.get("latency_attainment")
        attain_txt = (
            f"  latency<= {slo['latency_objective_ms']} ms: {attainment:.2%}"
            if attainment is not None
            else ""
        )
        lines.append(
            f"slo: availability={slo['availability']:.4f} "
            f"(objective {slo['availability_objective']})  "
            f"burn-rate={slo['burn_rate']}{attain_txt}"
        )
    return "\n".join(lines)
