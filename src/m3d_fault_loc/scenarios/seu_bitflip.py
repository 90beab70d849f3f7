"""``seu_bitflip`` — FsimNNs-style transient single-event upsets.

A particle strike deposits charge on one or more gates; the resulting
transient pulse behaves like a short-lived delay/glitch at each upset site.
Each sample picks ``n_flips`` distinct victim gates, charges each with a
transient extra delay (milder than a hard defect: 1–2.5× the gate's own
delay), labels the strongest upset as ``fault_index``, and records a
per-node ``transient_mask`` (0/1 per node, aligned with the graph's node
order) plus the flip list in ``meta["seu"]``. The mask travels in ``meta``
rather than as a tenth feature column so the (N, 9) float32 schema — and
every saved artifact and digest — stays intact; M3D114 rejects tagged
payloads whose mask is missing, mis-sized, or inconsistent with the flips.
The metric scores the upset *set*: hit-any@k and coverage@k.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from m3d_fault_loc.analysis.engine import GraphRule
from m3d_fault_loc.faults.injector import inject_delay_faults
from m3d_fault_loc.graph.builder import build_circuit_graph
from m3d_fault_loc.graph.netlist import Netlist
from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.scenarios.base import SampleStep, Scenario, site_recall
from m3d_fault_loc.scenarios.rules import SeuTransientMaskRule


class SeuBitflipScenario(Scenario):
    name = "seu_bitflip"
    description = "transient SEU strikes with a per-node transient mask in meta"
    prefix = "seu-bitflip"

    #: Default number of upset sites per strike (``spec.params['n_flips']``).
    default_n_flips = 2

    def sampler(self, params: dict[str, Any]) -> SampleStep:
        n_flips = int(params.get("n_flips", self.default_n_flips))
        if n_flips < 1:
            raise ValueError(f"seu_bitflip needs n_flips >= 1, got {n_flips}")

        def sample(netlist: Netlist, rng: np.random.Generator) -> CircuitGraph:
            upset, flips = inject_delay_faults(netlist, rng, n_flips, 1.0, 2.5)
            primary = max(flips, key=lambda f: f["extra_delay"])
            graph = build_circuit_graph(netlist, observed=upset, fault_gate=str(primary["gate"]))
            mask = [0] * graph.num_nodes
            for f in flips:
                mask[graph.node_names.index(str(f["gate"]))] = 1
            graph.meta["seu"] = {"flips": flips, "transient_mask": mask, "n_flips": len(flips)}
            return graph

        return sample

    def contract_rules(self) -> list[GraphRule]:
        return [SeuTransientMaskRule()]

    def evaluate(
        self, graphs: Sequence[CircuitGraph], scores: Sequence[np.ndarray], k: int = 3
    ) -> dict[str, float]:
        recalls = []
        for graph, graph_scores in zip(graphs, scores, strict=True):
            mask = graph.meta.get("seu", {}).get("transient_mask", [])
            recalls.append(site_recall({i for i, v in enumerate(mask) if v}, graph_scores, k))
        n = max(len(graphs), 1)
        return {
            "hit_any_at_k": sum(r > 0.0 for r in recalls) / n,
            "coverage_at_k": sum(recalls) / n,
        }
