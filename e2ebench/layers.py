"""Attribute a traced run's end-to-end time to the layers it passed through.

No timing code is added to the program. Layer times come from three
sources, all outside ``src/``:

- spans the servers already emit with ``--trace-log`` (``contract_gate``,
  ``cache_lookup``, ``queue_wait``, ``batch_infer`` on replicas;
  ``upstream_attempt`` on the router), joined to the client's samples by
  the ``X-M3D-Trace-Id`` the client sent;
- counters the servers already expose (``/metrics?format=json``, ``/model``)
  and the router's response headers;
- replays in the benchmark process of the public functions a layer runs
  (``json.loads`` + ``CircuitGraph.from_json_dict``, ``json.dumps``,
  ``gate_graph``) on the bodies and responses of the run.

A request's latency splits into the time inside the servers' traces and
the time outside them. Outside is the HTTP layer: request and response on
the wire (including any TCP delayed-ACK stall), framing, JSON decode and
encode. Transport is that outside time minus the replayed decode and encode.
Inside, the router's own time is its ``route`` trace minus its upstream
attempts, and a replica's time is covered by its spans. Whatever the spans
do not cover is the residual, reported in milliseconds and as a share of
the mean latency.

Because transport is defined as what is left outside the servers' traces,
the partition sums to the latency by construction everywhere except inside
the replica's ``localize`` trace. The residual gate therefore only catches
replica time its spans miss; it cannot catch time wrongly assigned to
transport, decode or encode. The evidence that transport is really the wire
is independent of the partition: ``serve.server.health_rtt_ms`` (a
keep-alive round trip that does no decode, gate or inference) and
``serve.server.stalled_share``.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict
from collections.abc import Iterable
from pathlib import Path
from typing import Any

import numpy as np

from m3d_fault_loc.data.dataset import GraphContractError, gate_graph
from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.obs.stitch import read_trace_files
from m3d_fault_loc.scenarios import DEFAULT_SCENARIO, build_scenario_engine
from m3d_fault_loc.serve.router import ATTEMPTS_HEADER, REPLICA_HEADER, HashRing

from e2ebench.loadgen import Sample
from e2ebench.workloads import Traffic

#: Replica spans, as layer metric names.
REPLICA_SPANS = {
    "contract_gate": "analysis.gate_ms",
    "cache_lookup": "serve.cache.lookup_ms",
    "queue_wait": "serve.service.queue_wait_ms",
    "batch_infer": "model.infer_ms",
}
#: Layer metrics whose per-request means sum to a request's latency.
PARTITION = (
    "serve.server.transport_ms",
    "serve.server.decode_ms",
    "serve.server.encode_ms",
    "serve.router.hop_ms",
    *REPLICA_SPANS.values(),
)
#: Transport time above this is a stalled request: Linux's delayed-ACK
#: timer, which holds back a keep-alive segment, is at least 40 ms.
STALL_MS = 30.0


def read_traces(trace_dir: Path) -> dict[str, list[dict[str, Any]]]:
    """Every finished trace in ``trace_dir/*.jsonl``, grouped by trace id."""
    by_id: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for trace in read_trace_files(sorted(trace_dir.glob("*.jsonl"))):
        by_id[str(trace["trace_id"])].append(trace)
    return by_id


def _totals(traces: list[dict[str, Any]], name: str) -> dict[str, float]:
    """Summed span durations (and ``_duration``) of the traces called ``name``."""
    totals: dict[str, float] = defaultdict(float)
    for trace in traces:
        if trace["name"] == name:
            for span in trace["spans"]:
                totals[span["stage"]] += span["duration_ms"]
            totals["_duration"] += trace["duration_ms"]
    return totals


def _timed_ms(fn, *args: Any) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - t0) * 1e3


def _decode(body: bytes) -> CircuitGraph:
    return CircuitGraph.from_json_dict(json.loads(body)["graph"])


def _gate(graph: CircuitGraph, engine: Any) -> None:
    try:
        gate_graph(graph, engine)
    except GraphContractError:
        pass  # a seeded reject: the gate did its full work before raising


def serve_layers(
    samples: list[Sample],
    traces: dict[str, list[dict[str, Any]]],
    traffic: Traffic,
    routed: bool,
) -> dict[str, float]:
    """Per-request layer means of a traced phase, and the residual they leave."""
    names = {"localize", "route"} if routed else {"localize"}
    missing = [
        s.trace_id for s in samples
        if not names <= {t["name"] for t in traces.get(s.trace_id, [])}
    ]
    if missing:
        raise ValueError(f"{len(missing)} request(s) left no trace, e.g. {missing[0]}")
    engine = build_scenario_engine(DEFAULT_SCENARIO)
    decode: dict[int, float] = {}
    gate: dict[int, float] = {}
    for body in sorted({s.body for s in samples}):
        decode[body] = _timed_ms(_decode, traffic.payloads[body])
        gate[body] = _timed_ms(_gate, traffic.graphs[body], engine)

    per_request: dict[str, list[float]] = defaultdict(list)
    for s in samples:
        replica = _totals(traces[s.trace_id], "localize")
        route = _totals(traces[s.trace_id], "route")
        for stage, metric in REPLICA_SPANS.items():
            per_request[metric].append(replica.get(stage, 0.0))
        upstream = route.get("upstream_attempt", 0.0)
        hop = route.get("_duration", 0.0) - upstream
        # Outside every server's trace: neither the router's own time nor the replica's.
        outside = s.latency_ms - hop - replica["_duration"]
        encode = _timed_ms(json.dumps, json.loads(s.payload))
        transport = outside - decode[s.body] - encode
        per_request["serve.server.transport_ms"].append(transport)
        per_request["serve.server.stalled_share"].append(float(transport >= STALL_MS))
        per_request["serve.server.decode_ms"].append(decode[s.body])
        per_request["serve.server.encode_ms"].append(encode)
        per_request["analysis.gate_replay_ms"].append(gate[s.body])
        per_request["serve.router.upstream_ms"].append(upstream)
        per_request["serve.router.hop_ms"].append(hop)
    found = {metric: float(np.mean(values)) for metric, values in per_request.items()}
    return {**found, **residual(float(np.mean([s.latency_ms for s in samples])), found, PARTITION)}


def residual(e2e_mean: float, layers: dict[str, float], parts: Iterable[str]) -> dict[str, float]:
    """The mean end-to-end time, what ``parts`` of ``layers`` leave of it, and that share."""
    left = e2e_mean - sum(layers[name] for name in parts)
    return {
        "bench.e2e_mean_ms": e2e_mean,
        "bench.residual_ms": left,
        "bench.residual_share": left / e2e_mean if e2e_mean else 0.0,
    }


def _counter(scrape: dict[str, Any], name: str) -> float:
    return float(scrape["metrics"].get(name, {}).get("value", 0.0))


def counter_ratios(before: list[dict[str, Any]], after: list[dict[str, Any]]) -> dict[str, float]:
    """Result-cache and operator-cache hit ratios over a phase, summed over replicas."""
    d_hits = d_requests = d_agg_hits = d_agg_misses = 0.0
    for b, a in zip(before, after, strict=True):
        d_hits += _counter(a, "m3d_cache_hits_total") - _counter(b, "m3d_cache_hits_total")
        d_requests += _counter(a, "m3d_requests_total") - _counter(b, "m3d_requests_total")
        agg_a, agg_b = a["model"]["cache"]["agg_operator"], b["model"]["cache"]["agg_operator"]
        d_agg_hits += agg_a["hits"] - agg_b["hits"]
        d_agg_misses += agg_a["misses"] - agg_b["misses"]
    return {
        "serve.cache.hit_ratio": d_hits / d_requests if d_requests else 0.0,
        "model.agg_cache_hit_ratio": (
            d_agg_hits / (d_agg_hits + d_agg_misses) if d_agg_hits + d_agg_misses else 0.0
        ),
    }


def router_headers(
    samples: list[Sample], traffic: Traffic, replica_keys: list[str]
) -> dict[str, float]:
    """Mean attempts per request, and the share answered by the ring owner."""
    ring = HashRing(replica_keys)
    owners = [
        ring.preference(hashlib.sha256(traffic.payloads[s.body]).hexdigest())[0]
        for s in samples
    ]
    return {
        "serve.router.attempts_mean": float(
            np.mean([int(s.headers[ATTEMPTS_HEADER]) for s in samples])
        ),
        "serve.router.owner_share": float(
            np.mean([s.headers[REPLICA_HEADER] == owner for s, owner in zip(samples, owners)])
        ),
    }
