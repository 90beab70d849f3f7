"""Scenario contract: spec, sample step, contract rules, eval metric.

A *scenario* is one fault physics the platform can synthesize, gate, serve,
and score — a bundle of three things:

- a **sample step**: ``sampler(spec.params)`` returns the function that
  turns one random netlist into one labeled :class:`CircuitGraph`.
  :meth:`Scenario.generate` is the one generation loop around it: one
  ``np.random.default_rng(spec.seed)`` feeds every netlist and every
  sample draw (the global stream is banned by m3dlint rule M3D209), so the
  same spec always yields a byte-identical dataset;
- **contract rules** (the M3D11x family): :class:`GraphRule` instances that
  validate the scenario's payload shape — the ``meta`` blocks its sample
  step writes — so a malformed or cross-scenario payload is a structured
  422 at the serving gate, never a silently wrong answer;
- an **eval metric**: ``evaluate(graphs, scores, k)`` scores a model's
  per-node scores (one array per graph, computed once by the caller) on
  the scenario's own terms (hit@1 on the labeled site, coverage@k over a
  fault set, ...) and returns a flat ``{metric: value}`` dict that the
  CLIs record in telemetry.

Scenario ``meta`` blocks are *optional on inference payloads* — an unlabeled
graph is servable under any scenario — but a graph **tagged** with
``meta["scenario"] = <name>`` (which the loop writes for every scenario
except the default ``single_delay``) must carry that scenario's block,
well-formed. ``single_delay`` stays untagged so its datasets are
byte-identical to those generated before scenarios existed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from m3d_fault_loc.analysis.engine import GraphRule
from m3d_fault_loc.data.synthetic import random_netlist
from m3d_fault_loc.graph.netlist import Netlist
from m3d_fault_loc.graph.schema import CircuitGraph

#: The scenario ``/localize`` assumes when the request names none — the
#: paper's original workload. Its generated graphs carry no scenario tag.
DEFAULT_SCENARIO = "single_delay"

#: A per-netlist sample step: ``(netlist, rng) -> labeled graph``.
SampleStep = Callable[[Netlist, np.random.Generator], CircuitGraph]


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything a generator needs: dataset shape + seed + scenario knobs.

    ``params`` holds scenario-specific knobs (``k`` simultaneous faults,
    ``activation_prob``, ``n_observations``, ``n_flips``); unknown keys
    are ignored so one spec can be replayed across scenarios.
    """

    n_graphs: int = 100
    n_gates: int = 40
    n_inputs: int = 6
    num_tiers: int = 2
    seed: int = 0
    params: dict[str, Any] = field(default_factory=dict)

    def rng(self) -> np.random.Generator:
        """The one RNG every draw of a dataset comes from."""
        return np.random.default_rng(self.seed)


class Scenario(ABC):
    """One fault scenario (sample step + contract rules + metric)."""

    #: Table key; also the value of ``meta["scenario"]`` on tagged graphs
    #: and the ``scenario`` field accepted by ``/localize``.
    name: str
    description: str
    #: Graph ``i`` of a generated dataset is named ``f"{prefix}-{i}"``.
    prefix: str

    def generate(self, spec: ScenarioSpec) -> list[CircuitGraph]:
        """Deterministically synthesize ``spec.n_graphs`` labeled samples."""
        sample = self.sampler(spec.params)
        rng = spec.rng()
        graphs: list[CircuitGraph] = []
        for i in range(spec.n_graphs):
            netlist = random_netlist(
                rng,
                n_gates=spec.n_gates,
                n_inputs=spec.n_inputs,
                num_tiers=spec.num_tiers,
                name=f"{self.prefix}-{i}",
            )
            graph = sample(netlist, rng)
            if self.name != DEFAULT_SCENARIO:
                graph.meta["scenario"] = self.name
            graphs.append(graph)
        return graphs

    @abstractmethod
    def sampler(self, params: dict[str, Any]) -> SampleStep:
        """The sample step for these ``spec.params``; ``ValueError`` on a bad knob."""

    @abstractmethod
    def contract_rules(self) -> list[GraphRule]:
        """This scenario's M3D11x payload rules (fresh instances)."""

    def evaluate(
        self, graphs: Sequence[CircuitGraph], scores: Sequence[np.ndarray], k: int = 3
    ) -> dict[str, float]:
        """Score per-node ``scores`` (one array per graph); flat float dict.

        The default is hit@1 and hit@k on each graph's ``fault_index``.
        """
        return {"hit_at_1": hit_at_k(graphs, scores, 1), "hit_at_k": hit_at_k(graphs, scores, k)}


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` highest scores, best first.

    The sort is stable over the negated scores, so ties go to the lowest
    index: ``top_k(scores, 1)[0] == np.argmax(scores)``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return np.argsort(-np.asarray(scores), kind="stable")[:k]


def hit_at_k(graphs: Sequence[CircuitGraph], scores: Iterable[np.ndarray], k: int) -> float:
    """Fraction of graphs whose ``fault_index`` ranks in their top-``k`` scores."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(graphs) == 0:
        return 0.0
    hits = sum(int(g.fault_index in top_k(s, k)) for g, s in zip(graphs, scores, strict=True))
    return hits / len(graphs)


def site_recall(sites: set[int], scores: np.ndarray, k: int) -> float:
    """Fraction of the node indices in ``sites`` ranked in the top-``k``; 0 if none."""
    if not sites:
        return 0.0
    return len(sites & set(top_k(scores, k).tolist())) / len(sites)
