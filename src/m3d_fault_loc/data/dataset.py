"""Contract-gated circuit-graph dataset.

The loader is the chokepoint between data producers and the model: every
graph passes through the ``m3dlint`` contract engine, and any ERROR-severity
finding raises :class:`GraphContractError` — there is deliberately no bypass
flag. Warnings are collected and surfaced but do not block loading.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from m3d_fault_loc.analysis.engine import RuleEngine, default_engine
from m3d_fault_loc.analysis.violations import Severity, Violation
from m3d_fault_loc.graph.schema import CircuitGraph


class GraphContractError(ValueError):
    """Raised when a graph offered to the dataset violates the contract."""

    def __init__(self, graph_name: str, violations: list[Violation]):
        self.graph_name = graph_name
        self.violations = violations
        details = "; ".join(v.render() for v in violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        super().__init__(f"graph {graph_name!r} violates the data contract: {details}{more}")


def gate_graph(graph: CircuitGraph, engine: RuleEngine | None = None) -> list[Violation]:
    """Run one graph through the contract gate; ERRORs raise, warnings return.

    This is the single-graph fast path shared by dataset construction and the
    serving layer (:mod:`m3d_fault_loc.serve`): one engine run per graph, the
    exact severity semantics of the dataset gate, and none of the dataset
    assembly cost per request. Like the dataset gate, it has no bypass flag.
    """
    engine = engine or default_engine()
    findings = engine.run(graph)
    errors = [v for v in findings if v.severity >= Severity.ERROR]
    if errors:
        raise GraphContractError(graph.name, errors)
    return findings


def read_graph_dir(path: str | Path) -> list[CircuitGraph]:
    """Every ``*.json`` graph under ``path``, in sorted path order, ungated."""
    path = Path(path)
    files = sorted(path.rglob("*.json"))
    if not files:
        raise FileNotFoundError(f"no graph files under {path}")
    return [CircuitGraph.load(f) for f in files]


class CircuitGraphDataset:
    """An in-memory set of contract-checked, labeled circuit graphs."""

    def __init__(self, graphs: list[CircuitGraph], warnings: list[Violation] | None = None):
        self._graphs = graphs
        #: WARNING-severity findings observed while gating (never ERRORs —
        #: those raise instead of constructing a dataset).
        self.warnings = warnings or []

    @classmethod
    def from_graphs(
        cls, graphs: Sequence[CircuitGraph], engine: RuleEngine | None = None
    ) -> CircuitGraphDataset:
        """Gate every graph through the contract engine; ERRORs raise."""
        engine = engine or default_engine()
        accepted: list[CircuitGraph] = []
        warnings: list[Violation] = []
        for graph in graphs:
            warnings.extend(gate_graph(graph, engine))
            accepted.append(graph)
        return cls(accepted, warnings)

    @classmethod
    def load_dir(cls, path: str | Path, engine: RuleEngine | None = None) -> CircuitGraphDataset:
        """Load every ``*.json`` graph under ``path`` through the gate."""
        return cls.from_graphs(read_graph_dir(path), engine=engine)

    def save_dir(self, path: str | Path) -> Path:
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        for i, graph in enumerate(self._graphs):
            graph.save(path / f"graph_{i:05d}.json")
        return path

    def split(
        self, rng: np.random.Generator, test_fraction: float = 0.2
    ) -> tuple[CircuitGraphDataset, CircuitGraphDataset]:
        """Shuffled train/test split (graphs already passed the gate)."""
        if not 0.0 < test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
        order = rng.permutation(len(self._graphs))
        n_test = max(1, int(round(len(self._graphs) * test_fraction)))
        if n_test >= len(self._graphs):
            raise ValueError(
                f"cannot split {len(self._graphs)} graph(s) with "
                f"test_fraction={test_fraction}: the train split would be empty"
            )
        test_idx = set(order[:n_test].tolist())
        train = [g for i, g in enumerate(self._graphs) if i not in test_idx]
        test = [g for i, g in enumerate(self._graphs) if i in test_idx]
        return CircuitGraphDataset(train), CircuitGraphDataset(test)

    def __len__(self) -> int:
        return len(self._graphs)

    def __getitem__(self, index: int) -> CircuitGraph:
        return self._graphs[index]

    def __iter__(self) -> Iterator[CircuitGraph]:
        return iter(self._graphs)
