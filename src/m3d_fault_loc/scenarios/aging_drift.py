"""``aging_drift`` — GNN4REL-style per-gate delay degradation field.

Aging (NBTI/HCI) and process variation degrade every gate a little and a
few gates a lot: each sample draws a baseline drift fraction per non-PI
gate plus a handful of *hot* gates with accelerated aging, ages the
observed netlist by ``delay · (1 + drift)``, labels the drift maximum as
``fault_index``, and records the full per-node drift field (aligned with
the graph's node order) in ``meta["aging"]["drift"]`` — validated by
M3D115. Because the target is a continuous field rather than a single
site, the metric is regression-flavored: the Pearson correlation between
the model's node scores and the drift field, the mean absolute error of
the min-max-normalized score field, plus hit@k on the drift maximum.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from m3d_fault_loc.analysis.engine import GraphRule
from m3d_fault_loc.faults.injector import fault_sites
from m3d_fault_loc.graph.builder import build_circuit_graph
from m3d_fault_loc.graph.netlist import Netlist
from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.scenarios.base import SampleStep, Scenario, hit_at_k
from m3d_fault_loc.scenarios.rules import AgingDriftFieldRule


def _normalized(values: np.ndarray) -> np.ndarray:
    span = float(values.max() - values.min())
    if span <= 0.0:
        return np.zeros_like(values)
    return (values - values.min()) / span


class AgingDriftScenario(Scenario):
    name = "aging_drift"
    description = "per-gate aging drift field; regression metric vs node scores"
    prefix = "aging-drift"

    #: Baseline drift range for every non-PI gate.
    base_drift = (0.0, 0.05)
    #: Accelerated drift range for the hot gates.
    hot_drift = (0.15, 0.35)
    #: Fraction of non-PI gates aged at the accelerated rate.
    default_hot_fraction = 0.1

    def sampler(self, params: dict[str, Any]) -> SampleStep:
        hot_fraction = float(params.get("hot_fraction", self.default_hot_fraction))
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError(f"aging_drift needs hot_fraction in (0, 1], got {hot_fraction}")

        def sample(netlist: Netlist, rng: np.random.Generator) -> CircuitGraph:
            candidates = fault_sites(netlist)
            drift_by_gate = {name: float(rng.uniform(*self.base_drift)) for name in candidates}
            n_hot = max(1, int(round(hot_fraction * len(candidates))))
            hot_picks = rng.choice(len(candidates), size=n_hot, replace=False)
            for p in hot_picks:
                drift_by_gate[candidates[int(p)]] = float(rng.uniform(*self.hot_drift))
            aged = netlist
            for name, drift in drift_by_gate.items():
                if drift > 0.0:
                    aged = aged.with_extra_delay(name, netlist.gates[name].delay * drift)
            peak_gate = max(drift_by_gate, key=lambda name: drift_by_gate[name])
            graph = build_circuit_graph(netlist, observed=aged, fault_gate=peak_gate)
            graph.meta["aging"] = {
                "drift": [float(drift_by_gate.get(name, 0.0)) for name in graph.node_names],
                "peak_gate": peak_gate,
            }
            return graph

        return sample

    def contract_rules(self) -> list[GraphRule]:
        return [AgingDriftFieldRule()]

    def evaluate(
        self, graphs: Sequence[CircuitGraph], scores: Sequence[np.ndarray], k: int = 3
    ) -> dict[str, float]:
        if not graphs:
            return {"pearson_r": 0.0, "drift_mae": 0.0, "hit_at_k": 0.0}
        correlations: list[float] = []
        maes: list[float] = []
        for graph, graph_scores in zip(graphs, scores, strict=True):
            drift = np.asarray(graph.meta["aging"]["drift"], dtype=np.float64)
            field = np.asarray(graph_scores, dtype=np.float64)
            if float(drift.std()) > 0.0 and float(field.std()) > 0.0:
                correlations.append(float(np.corrcoef(field, drift)[0, 1]))
            else:
                correlations.append(0.0)
            maes.append(float(np.abs(_normalized(field) - _normalized(drift)).mean()))
        return {
            "pearson_r": float(np.mean(correlations)),
            "drift_mae": float(np.mean(maes)),
            "hit_at_k": hit_at_k(graphs, scores, k),
        }
