"""``multi_delay`` — ``k`` simultaneous small-delay defects per graph.

Real silicon rarely fails one defect at a time: systematic process issues
hit several gates at once, and their slack footprints overlap. Each sample
injects ``k`` distinct faults (chained ``with_extra_delay``), labels the
dominant one (largest extra delay) as ``fault_index``, and records the full
set in ``meta["faults"]`` — which M3D112 keeps consistent and which the
metric scores as a *set*: coverage@k (fraction of injected faults ranked in
the top-k) alongside hit-any/hit-all.
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
from m3d_fault_loc.scenarios.rules import MultiDelayFaultSetRule


class MultiDelayScenario(Scenario):
    name = "multi_delay"
    description = "k simultaneous delay faults; scored as a fault set (coverage@k)"
    prefix = "multi-delay"

    #: Default number of simultaneous faults (``spec.params['k']`` overrides).
    default_k = 2

    def sampler(self, params: dict[str, Any]) -> SampleStep:
        k = int(params.get("k", self.default_k))
        if k < 1:
            raise ValueError(f"multi_delay needs k >= 1 faults, got {k}")

        def sample(netlist: Netlist, rng: np.random.Generator) -> CircuitGraph:
            faulty, faults = inject_delay_faults(netlist, rng, k, 2.0, 4.0)
            dominant = max(faults, key=lambda f: f["extra_delay"])
            graph = build_circuit_graph(netlist, observed=faulty, fault_gate=str(dominant["gate"]))
            graph.meta["faults"] = faults
            return graph

        return sample

    def contract_rules(self) -> list[GraphRule]:
        return [MultiDelayFaultSetRule()]

    def evaluate(
        self, graphs: Sequence[CircuitGraph], scores: Sequence[np.ndarray], k: int = 3
    ) -> dict[str, float]:
        recalls = []
        for graph, graph_scores in zip(graphs, scores, strict=True):
            faults = graph.meta.get("faults", [])
            sites = {graph.node_names.index(str(f["gate"])) for f in faults}
            recalls.append(site_recall(sites, graph_scores, k))
        n = max(len(graphs), 1)
        return {
            "coverage_at_k": sum(recalls) / n,
            "hit_any_at_k": sum(r > 0.0 for r in recalls) / n,
            "hit_all_at_k": sum(r == 1.0 for r in recalls) / n,
        }
