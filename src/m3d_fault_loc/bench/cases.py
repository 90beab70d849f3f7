"""The bench case catalog: closures over the real hot-path code.

Each case prepares a zero-arg closure that exercises one production code
path on a pinned workload — the same functions the serving stack calls, not
reimplementations — plus metadata (work units per call) and an optional
cleanup. ``node_scores_batch_legacy`` is the one deliberate exception: it
replays the **pre-optimization** batch path (fresh per-graph operator build
+ ``scipy.sparse.block_diag`` re-pack + unconditional ``astype`` + fresh
forward allocations every call) so every ``BENCH_<n>.json`` carries its own
before/after evidence for the cached-operator speedup.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np
import scipy.sparse as sp

from m3d_fault_loc.analysis.engine import default_engine
from m3d_fault_loc.bench.workloads import Workload, repeat_batch
from m3d_fault_loc.data.dataset import gate_graph
from m3d_fault_loc.graph.builder import build_circuit_graph
from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.model.aggregate import build_in_neighbor_mean
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.model.optim import Adam
from m3d_fault_loc.obs.profile import PhaseProfiler, phase
from m3d_fault_loc.scenarios import ScenarioSpec, registered_scenarios
from m3d_fault_loc.serve.cache import LRUResultCache, graph_digest
from m3d_fault_loc.serve.service import LocalizationService

#: (timed closure, per-call metadata, optional cleanup).
PreparedCase = tuple[Callable[[], Any], dict[str, Any], Callable[[], None] | None]


@dataclass(frozen=True)
class BenchContext:
    """Knobs shared by every case in one ``m3d-bench run``."""

    hidden: int = 32
    model_seed: int = 0
    precision: str = "float64"
    batch_size: int = 16
    concurrency: int = 4
    requests_per_client: int = 8
    pool_workers: int = 4

    def make_model(self) -> DelayFaultLocalizer:
        return DelayFaultLocalizer(
            hidden=self.hidden, seed=self.model_seed, precision=self.precision
        )


def _case_graph_build(workload: Workload, ctx: BenchContext) -> PreparedCase:
    inputs = workload.build_inputs

    def fn() -> int:
        total = 0
        for netlist, observed, fault_gate in inputs:
            total += build_circuit_graph(netlist, observed=observed, fault_gate=fault_gate).num_nodes
        return total

    return fn, {"graphs_per_call": len(inputs)}, None


def _case_contract_gate(workload: Workload, ctx: BenchContext) -> PreparedCase:
    engine = default_engine()
    graphs = workload.graphs

    def fn() -> int:
        total = 0
        for graph in graphs:
            total += len(gate_graph(graph, engine))
        return total

    return fn, {"graphs_per_call": len(graphs)}, None


def _case_content_digest(workload: Workload, ctx: BenchContext) -> PreparedCase:
    graphs = workload.graphs

    def fn() -> str:
        digest = ""
        for graph in graphs:
            digest = graph_digest(graph)
        return digest

    return fn, {"graphs_per_call": len(graphs)}, None


def _case_cache_lookup(workload: Workload, ctx: BenchContext) -> PreparedCase:
    cache = LRUResultCache(capacity=max(len(workload.digests) * 2, 8))
    for digest in workload.digests:
        cache.put(digest, {"digest": digest})
    keys = list(workload.digests) + [f"miss-{d[:16]}" for d in workload.digests]

    def fn() -> int:
        found = 0
        for key in keys:
            if cache.get(key) is not None:
                found += 1
        return found

    return fn, {"lookups_per_call": len(keys), "hit_fraction": 0.5}, None


def _case_node_scores(workload: Workload, ctx: BenchContext) -> PreparedCase:
    model = ctx.make_model()
    graphs = workload.graphs

    def fn() -> float:
        acc = 0.0
        for graph in graphs:
            acc += float(model.node_scores(graph)[0])
        return acc

    return fn, {"graphs_per_call": len(graphs)}, None


def _case_node_scores_batch(workload: Workload, ctx: BenchContext) -> PreparedCase:
    """The optimized serve path on a repeat-graph batch: cached CSR operators
    keyed by topology, segment-offset block stacking, preallocated buffers.
    Warmup calls populate the operator cache — exactly what a warm serving
    worker sees."""
    model = ctx.make_model()
    graphs = repeat_batch(workload, ctx.batch_size)

    def fn() -> int:
        return len(model.node_scores_batch(graphs))

    return fn, {"graphs_per_call": len(graphs), "batch_size": ctx.batch_size}, None


def legacy_node_scores_batch(
    model: DelayFaultLocalizer, graphs: Sequence[CircuitGraph]
) -> list[np.ndarray]:
    """The pre-optimization batch forward, preserved as the bench baseline:
    rebuilds every per-graph operator, re-packs them with ``block_diag``,
    re-casts features, and allocates every intermediate — per call."""
    sizes = [g.num_nodes for g in graphs]
    x = np.concatenate([g.x.astype(np.float64) for g in graphs], axis=0)
    # m3dlint: disable=M3D208 reason=deliberate pre-PR baseline the harness measures against
    m = sp.block_diag([build_in_neighbor_mean(g) for g in graphs], format="csr")
    p = model.params
    mx = m @ x
    a1 = x @ p["W1s"] + mx @ p["W1n"] + p["b1"]
    h1 = np.maximum(a1, 0.0)
    mh1 = m @ h1
    a2 = h1 @ p["W2s"] + mh1 @ p["W2n"] + p["b2"]
    h2 = np.maximum(a2, 0.0)
    logits = (np.einsum("nh,ho->no", h2, p["w3"]) + p["b3"]).ravel()
    return [part.copy() for part in np.split(logits, np.cumsum(sizes)[:-1])]


def _case_node_scores_batch_legacy(workload: Workload, ctx: BenchContext) -> PreparedCase:
    model = ctx.make_model()
    graphs = repeat_batch(workload, ctx.batch_size)

    def fn() -> int:
        return len(legacy_node_scores_batch(model, graphs))

    return fn, {"graphs_per_call": len(graphs), "batch_size": ctx.batch_size}, None


def _case_e2e_localize(workload: Workload, ctx: BenchContext) -> PreparedCase:
    """End-to-end ``localize()`` under concurrent clients: contract gate,
    digest, admission queue, micro-batcher, forward pass, result build.
    The result cache is shrunk to one entry so repeats measure the pipeline,
    not memoization; the aggregation-operator cache stays warm, as in
    production."""
    service = LocalizationService(
        model=ctx.make_model(),
        cache_size=1,
        max_batch=ctx.batch_size,
        batch_window_s=0.002,
        max_queue=4096,
        request_timeout_s=120.0,
        watchdog_interval_s=None,
    )
    service.start()
    pool = ThreadPoolExecutor(max_workers=ctx.concurrency, thread_name_prefix="bench-client")
    graphs = workload.graphs
    per_client = ctx.requests_per_client

    def client(offset: int) -> int:
        done = 0
        for i in range(per_client):
            graph = graphs[(offset + i) % len(graphs)]
            service.localize(graph, top_k=3)
            done += 1
        return done

    def fn() -> int:
        futures = [pool.submit(client, i * per_client) for i in range(ctx.concurrency)]
        return sum(f.result() for f in futures)

    def cleanup() -> None:
        pool.shutdown(wait=True)
        service.close()

    meta = {
        "requests_per_call": ctx.concurrency * per_client,
        "concurrency": ctx.concurrency,
        "result_cache": "defeated (capacity=1)",
    }
    return fn, meta, cleanup


def _case_e2e_localize_pool(workload: Workload, ctx: BenchContext) -> PreparedCase:
    """The ``e2e_localize`` pipeline against a ``pool_workers``-wide sharded
    worker pool under doubled client concurrency — the scale-out data point.
    Same defeated result cache, same micro-batcher; the only variable is N
    digest-sharded workers draining the admission queues in parallel, so
    the trajectory shows what the pool buys over the 1-worker topology."""
    service = LocalizationService(
        model=ctx.make_model(),
        cache_size=1,
        max_batch=ctx.batch_size,
        batch_window_s=0.002,
        max_queue=4096,
        request_timeout_s=120.0,
        watchdog_interval_s=None,
        num_workers=ctx.pool_workers,
    )
    service.start()
    clients = ctx.concurrency * 2
    pool = ThreadPoolExecutor(max_workers=clients, thread_name_prefix="bench-pool-client")
    graphs = workload.graphs
    per_client = ctx.requests_per_client

    def client(offset: int) -> int:
        done = 0
        for i in range(per_client):
            graph = graphs[(offset + i) % len(graphs)]
            service.localize(graph, top_k=3)
            done += 1
        return done

    def fn() -> int:
        futures = [pool.submit(client, i * per_client) for i in range(clients)]
        return sum(f.result() for f in futures)

    def cleanup() -> None:
        pool.shutdown(wait=True)
        service.close()

    meta = {
        "requests_per_call": clients * per_client,
        "concurrency": clients,
        "pool_workers": ctx.pool_workers,
        "result_cache": "defeated (capacity=1)",
    }
    return fn, meta, cleanup


def _case_scenario_generate(workload: Workload, ctx: BenchContext) -> PreparedCase:
    """One tiny seeded dataset per registered scenario per call — measures the
    scenario generators themselves (netlist synthesis + fault payload
    construction), sized so the per-scenario cost stays comparable across
    workload sizes."""
    scenarios = registered_scenarios()
    spec = ScenarioSpec(
        n_graphs=2,
        n_gates=workload.spec.n_gates,
        n_inputs=workload.spec.n_inputs,
        num_tiers=workload.spec.num_tiers,
        seed=workload.spec.seed,
    )

    def fn() -> int:
        total = 0
        for scenario in scenarios:
            total += sum(g.num_nodes for g in scenario.generate(spec))
        return total

    meta = {
        "scenarios_per_call": len(scenarios),
        "graphs_per_scenario": spec.n_graphs,
    }
    return fn, meta, None


def _case_train_epoch(workload: Workload, ctx: BenchContext) -> PreparedCase:
    """One full training epoch over the workload graphs: per-graph
    ``loss_and_grads`` backward passes, gradient accumulation, and an Adam
    step per minibatch — the ``m3d-train`` inner loop on production code."""
    model = ctx.make_model()
    optimizer = Adam(model.params, lr=1e-3)
    graphs = workload.graphs

    def fn() -> float:
        total_loss = 0.0
        for start in range(0, len(graphs), ctx.batch_size):
            batch = graphs[start : start + ctx.batch_size]
            grads = {k: np.zeros_like(v) for k, v in model.params.items()}
            for graph in batch:
                loss, g = model.loss_and_grads(graph)
                total_loss += loss
                for k in grads:
                    grads[k] += g[k] / len(batch)
            optimizer.step(grads)
        return total_loss

    meta = {"graphs_per_call": len(graphs), "batch_size": ctx.batch_size}
    return fn, meta, None


def _case_train_epoch_profiled(workload: Workload, ctx: BenchContext) -> PreparedCase:
    """The same epoch with an active :class:`PhaseProfiler`: measures the
    enabled-path overhead of the ``m3d-train --profile`` phase brackets
    (forward/backward inside ``loss_and_grads``, plus optimizer_step here)
    against the plain ``train_epoch`` case."""
    model = ctx.make_model()
    optimizer = Adam(model.params, lr=1e-3)
    graphs = workload.graphs
    profiler = PhaseProfiler()

    def fn() -> float:
        total_loss = 0.0
        with profiler:
            for start in range(0, len(graphs), ctx.batch_size):
                batch = graphs[start : start + ctx.batch_size]
                grads = {k: np.zeros_like(v) for k, v in model.params.items()}
                for graph in batch:
                    loss, g = model.loss_and_grads(graph)
                    total_loss += loss
                    for k in grads:
                        grads[k] += g[k] / len(batch)
                with phase("optimizer_step"):
                    optimizer.step(grads)
        profiler.drain()
        return total_loss

    meta = {"graphs_per_call": len(graphs), "batch_size": ctx.batch_size}
    return fn, meta, None


#: Case catalog in report order. Keys are the public case names.
CASES: dict[str, Callable[[Workload, BenchContext], PreparedCase]] = {
    "graph_build": _case_graph_build,
    "contract_gate": _case_contract_gate,
    "content_digest": _case_content_digest,
    "cache_lookup": _case_cache_lookup,
    "node_scores": _case_node_scores,
    "node_scores_batch": _case_node_scores_batch,
    "node_scores_batch_legacy": _case_node_scores_batch_legacy,
    "train_epoch": _case_train_epoch,
    "train_epoch_profiled": _case_train_epoch_profiled,
    "scenario_generate": _case_scenario_generate,
    "e2e_localize": _case_e2e_localize,
    "e2e_localize_pool": _case_e2e_localize_pool,
}

CASE_DESCRIPTIONS: dict[str, str] = {
    "graph_build": "netlist + observed timing -> CircuitGraph construction",
    "contract_gate": "m3dlint contract engine over every workload graph",
    "content_digest": "canonical content hash of every workload graph",
    "cache_lookup": "LRU result-cache get() at a 50% hit rate",
    "node_scores": "single-graph forward pass (warm operator cache)",
    "node_scores_batch": "batched forward, cached operators + segment-offset stacking",
    "node_scores_batch_legacy": "pre-PR batched forward: block_diag rebuild every call",
    "train_epoch": "one m3d-train epoch: loss_and_grads + Adam over the workload",
    "train_epoch_profiled": "same epoch with the phase profiler active (bracket overhead)",
    "scenario_generate": "tiny seeded dataset from every registered scenario generator",
    "e2e_localize": "end-to-end localize() under concurrent client threads",
    "e2e_localize_pool": "e2e localize() against the sharded 4-worker pool, 2x clients",
}
