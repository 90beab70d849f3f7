"""The benchmark's workloads: what each one sends or trains, built from a seed.

The program under test only ever sees the generated inputs. Serve workloads
differ in the properties serving cost depends on: graph size, how often a
body repeats (working set against the 1,024-entry result cache), how many
requests the contract gate rejects, and whether the router sits in front.

Every answer is checked. A 200 must rank the same top-k nodes as an
in-process :meth:`DelayFaultLocalizer.node_scores` reference on the same
graph, with scores equal within :data:`SCORE_TOL`; a 422 must come from a
body seeded with a back edge and must name :data:`CYCLE_RULE`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from m3d_fault_loc.data.synthetic import random_netlist
from m3d_fault_loc.faults.injector import make_fault_sample
from m3d_fault_loc.graph.schema import INDEX_DTYPE, CircuitGraph
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.serve.cache import graph_digest

from e2ebench.loadgen import Sample

TOP_K = 5
SCORE_TOL = 1e-9
CYCLE_RULE = "M3D101"
#: The served model: fixed weights, so every seed varies only the traffic.
MODEL_HIDDEN = 32
MODEL_SEED = 0
#: Request-stream positions drawn up front (a phase wraps around past this).
STREAM_LEN = 100_000


@dataclass(frozen=True)
class ServeWorkload:
    """A traffic mix against ``m3d-serve`` (``routed``: behind ``m3d-route``)."""

    name: str
    n_gates: int
    n_inputs: int
    num_tiers: int
    designs: int
    hot: int
    cold: int
    reject: int
    #: Share of requests drawn from the hot set, the cold pool and the rejects.
    mix: tuple[float, float, float]
    #: Concurrent callers, each on its own keep-alive connection.
    callers: int
    routed: bool = False
    #: Fresh (non-pool) bodies sent before timing, so lazy set-up is done.
    warm_extra: int = 4


@dataclass(frozen=True)
class TrainWorkload:
    """``single_delay`` dataset synthesis, gating, and ``cli.train.train``."""

    name: str
    n_graphs: int
    n_gates: int
    n_inputs: int
    num_tiers: int
    epochs: int
    batch_size: int
    hidden: int
    test_fraction: float
    #: Held-out top-1 accuracy below which the run counts as wrong.
    hit1_floor: float


WORKLOADS: dict[str, ServeWorkload | TrainWorkload] = {
    "serve_large_miss": ServeWorkload(
        name="serve_large_miss", n_gates=480, n_inputs=12, num_tiers=3, designs=8,
        hot=0, cold=1200, reject=0, mix=(0.0, 1.0, 0.0), callers=1,
    ),
    "serve_small_hot": ServeWorkload(
        name="serve_small_hot", n_gates=30, n_inputs=5, num_tiers=2, designs=16,
        hot=16, cold=1100, reject=32, mix=(0.80, 0.15, 0.05), callers=2,
    ),
    "routed_medium_mixed": ServeWorkload(
        name="routed_medium_mixed", n_gates=120, n_inputs=8, num_tiers=2, designs=16,
        hot=64, cold=2100, reject=0, mix=(0.5, 0.5, 0.0), callers=2,
        routed=True,
    ),
    "train_medium": TrainWorkload(
        name="train_medium", n_graphs=600, n_gates=120, n_inputs=8, num_tiers=2,
        epochs=200, batch_size=8, hidden=32, test_fraction=0.2, hit1_floor=0.5,
    ),
}


def smoke(workload: ServeWorkload | TrainWorkload) -> ServeWorkload | TrainWorkload:
    """The same workload shrunk to seconds: tiny graphs and pools."""
    if isinstance(workload, TrainWorkload):
        return replace(workload, n_graphs=40, n_gates=16, n_inputs=4, epochs=2, hit1_floor=0.0)
    return replace(
        workload,
        n_gates=min(workload.n_gates, 24),
        n_inputs=4,
        designs=2,
        hot=min(workload.hot, 4),
        cold=24,
        reject=min(workload.reject, 2),
        warm_extra=1,
    )


@dataclass
class Traffic:
    """Pre-encoded request bodies and the stream that orders them."""

    payloads: list[bytes]
    graphs: list[CircuitGraph]
    #: Body indices carrying a seeded back edge (expected: 422 naming M3D101).
    rejects: frozenset[int]
    #: Body indices sent once before timing (hot set + fresh extras).
    warm: list[int]
    #: Request position -> body index.
    stream: np.ndarray


def add_back_edge(graph: CircuitGraph) -> CircuitGraph:
    """Copy of ``graph`` with its first edge reversed as well: a 2-cycle.

    The reversed edge keeps its type and endpoints' tiers, so acyclicity
    (M3D101) is the only contract rule it breaks.
    """
    u, v = (int(i) for i in graph.edge_index[:, 0])
    return replace(
        graph,
        name=f"{graph.name}-cyclic",
        edge_index=np.concatenate(
            [graph.edge_index, np.asarray([[v], [u]], dtype=INDEX_DTYPE)], axis=1
        ),
        edge_type=np.concatenate([graph.edge_type, graph.edge_type[:1]]),
        edge_attr=np.concatenate([graph.edge_attr, graph.edge_attr[:1]], axis=0),
    )


def encode(graph: CircuitGraph) -> bytes:
    return json.dumps({"graph": graph.to_json_dict(), "top_k": TOP_K}).encode()


def build_traffic(workload: ServeWorkload, seed: int) -> Traffic:
    """Bodies laid out as ``[hot | cold | reject | warm extras]``, plus the stream."""
    rng = np.random.default_rng(seed)
    designs = [
        random_netlist(
            rng,
            n_gates=workload.n_gates,
            n_inputs=workload.n_inputs,
            num_tiers=workload.num_tiers,
            name=f"design-{d}",
        )
        for d in range(workload.designs)
    ]
    n_clean = workload.hot + workload.cold
    n_total = n_clean + workload.reject + workload.warm_extra
    graphs = [make_fault_sample(designs[k % len(designs)], rng) for k in range(n_total)]
    reject_ids = range(n_clean, n_clean + workload.reject)
    for k in reject_ids:
        graphs[k] = add_back_edge(graphs[k])
    if len({graph_digest(g) for g in graphs}) != len(graphs):
        raise ValueError(f"seed {seed} drew two identical observations; pick another seed")

    kinds = rng.choice(3, size=STREAM_LEN, p=workload.mix)
    hot_pick = rng.integers(max(workload.hot, 1), size=STREAM_LEN)
    reject_pick = n_clean + rng.integers(max(workload.reject, 1), size=STREAM_LEN)
    # The cold pool is replayed cyclically in a seeded order, so a cold body
    # recurs only after every other cold body was sent.
    cold_order = workload.hot + rng.permutation(workload.cold)
    cold_rank = np.cumsum(kinds == 1) - 1
    cold_pick = cold_order[cold_rank % workload.cold]
    stream = np.select([kinds == 0, kinds == 1], [hot_pick, cold_pick], reject_pick)

    warm = list(range(workload.hot)) + list(range(n_total - workload.warm_extra, n_total))
    if workload.reject:
        warm.append(n_clean)
    return Traffic(
        payloads=[encode(g) for g in graphs],
        graphs=graphs,
        rejects=frozenset(reject_ids),
        warm=warm,
        stream=stream.astype(np.int64),
    )


def served_model() -> DelayFaultLocalizer:
    return DelayFaultLocalizer(hidden=MODEL_HIDDEN, seed=MODEL_SEED)


class Reference:
    """In-process answers for every body, computed on demand and memoized."""

    def __init__(self, model: DelayFaultLocalizer, traffic: Traffic):
        self.model = model
        self.traffic = traffic
        self._scores: dict[int, np.ndarray] = {}

    def scores(self, body: int) -> np.ndarray:
        if body not in self._scores:
            self._scores[body] = self.model.node_scores(self.traffic.graphs[body])
        return self._scores[body]

    def check(self, sample: Sample) -> str | None:
        """``None`` when the response is right, else what is wrong with it."""
        if sample.error:
            return sample.error
        if sample.body in self.traffic.rejects:
            if sample.status != 422:
                return f"seeded back edge answered {sample.status}, expected 422"
            doc = json.loads(sample.payload)
            rules = {v.get("rule_id") for v in doc.get("violations", [])}
            if doc.get("error") != "contract_violation" or CYCLE_RULE not in rules:
                return f"422 does not name {CYCLE_RULE}: {sorted(map(str, rules))}"
            return None
        if sample.status != 200:
            return f"answered {sample.status}, expected 200"
        top = json.loads(sample.payload)["top"]
        scores = self.scores(sample.body)
        want = np.argsort(scores)[::-1][:TOP_K]
        if len(top) != len(want):
            return f"top-{TOP_K} has {len(top)} entries"
        for entry, expected in zip(top, want):
            index, score = int(entry["index"]), float(entry["score"])
            if not 0 <= index < len(scores):
                return f"node index {index} out of range"
            if abs(score - scores[expected]) > SCORE_TOL:
                return f"score {score!r} != reference {scores[expected]!r}"
            # A different index is only right when it ties with the reference.
            if index != expected and abs(scores[index] - scores[expected]) > SCORE_TOL:
                return f"node {index} ranked where the reference ranks {int(expected)}"
        return None
