"""Built-in contract rules for circuit graphs.

Rule IDs are stable and documented in ``docs/analysis.md``. Structural rules
(M3D101–M3D105) encode M3D netlist invariants; schema rules (M3D106–M3D107)
encode the model's data contract; M3D108 is an electrical-quality warning.
"""

from __future__ import annotations

import numpy as np

from m3d_fault_loc.analysis.engine import GraphRule, RuleConfig
from m3d_fault_loc.analysis.violations import Severity, Violation
from m3d_fault_loc.graph.schema import (
    EDGE_FEATURE_COLUMNS,
    EDGE_MIV,
    EDGE_NET,
    FEATURE_COLUMNS,
    INDEX_DTYPE,
    NODE_DTYPE,
    CircuitGraph,
)


def _is_index_array(arr: object, shape: tuple[int, ...] | None = None) -> bool:
    """True for an ``INDEX_DTYPE`` ndarray (of ``shape``, when given).

    Any other dtype is M3D106's finding; narrow or unsigned integers would
    also wrap in the tier arithmetic below.
    """
    return (
        isinstance(arr, np.ndarray)
        and arr.dtype == INDEX_DTYPE
        and (shape is None or arr.shape == shape)
    )


def _edges_usable(graph: CircuitGraph) -> bool:
    """True when edge_index is well-formed enough for edge rules to run.

    Malformed edge storage itself is reported by :class:`SchemaConformanceRule`;
    other rules quietly skip rather than crash or double-report.
    """
    ei = graph.edge_index
    if not _is_index_array(ei) or ei.ndim != 2 or ei.shape[0] != 2:
        return False
    if ei.shape[1] and (ei.min() < 0 or ei.max() >= graph.num_nodes):
        return False
    return True


def _tiers_usable(graph: CircuitGraph) -> bool:
    """True when the tier array can be indexed per node (else M3D106 reports)."""
    return _is_index_array(graph.tier, (graph.num_nodes,))


def _edge_types_usable(graph: CircuitGraph) -> bool:
    """True when there is one integer edge type per edge (else M3D106 reports)."""
    return _is_index_array(graph.edge_type, (graph.num_edges,))


def _edge_location(graph: CircuitGraph, e: int) -> str:
    u, v = int(graph.edge_index[0, e]), int(graph.edge_index[1, e])
    return f"edge {graph.node_names[u]}->{graph.node_names[v]}"


class CyclicTimingGraphRule(GraphRule):
    """Timing graph must be a DAG — arrival/required propagation (and any
    message-passing scheme ordered by it) is undefined on cycles."""

    id = "M3D101"
    severity = Severity.ERROR
    description = "timing graph must be acyclic"

    def check(self, graph: CircuitGraph, config: RuleConfig) -> list[Violation]:
        if not _edges_usable(graph):
            return []
        src, dst = graph.edge_index
        # Node ids in topological order (every edge runs low -> high, as the
        # graph builder emits them) prove acyclicity in one vectorized pass.
        if not (src >= dst).any():
            return []
        # Otherwise Kahn's algorithm, O(N + E): what survives is exactly the
        # set no topological order can reach.
        n = graph.num_nodes
        indeg = np.bincount(dst, minlength=n).tolist()
        fanouts: list[list[int]] = [[] for _ in range(n)]
        for u, v in zip(src.tolist(), dst.tolist()):
            fanouts[u].append(v)
        stack = [i for i, d in enumerate(indeg) if d == 0]
        while stack:
            for v in fanouts[stack.pop()]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
        cyclic = [graph.node_names[i] for i, d in enumerate(indeg) if d]
        if not cyclic:
            return []
        return [
            self.violation(
                f"combinational cycle through {len(cyclic)} node(s): "
                f"{', '.join(map(str, cyclic[:5]))}",
                location=f"graph {graph.name}",
                nodes=cyclic[:16],
            )
        ]


class DanglingNetRule(GraphRule):
    """Every net must be driven and observed: non-PI nodes need fanin,
    non-PO nodes need fanout."""

    id = "M3D102"
    severity = Severity.ERROR
    description = "no dangling (undriven) or floating (unobserved) nets"

    def check(self, graph: CircuitGraph, config: RuleConfig) -> list[Violation]:
        n = graph.num_nodes
        is_pi, is_po = graph.is_pi, graph.is_po
        for flags in (is_pi, is_po):
            if not isinstance(flags, np.ndarray) or flags.dtype != bool or flags.shape != (n,):
                return []
        if not _edges_usable(graph):
            return []
        src, dst = graph.edge_index
        undriven = (np.bincount(dst, minlength=n) == 0) & ~is_pi
        floating = (np.bincount(src, minlength=n) == 0) & ~is_po
        findings: list[Violation] = []
        for i in np.flatnonzero(undriven | floating).tolist():
            name = graph.node_names[i]
            if undriven[i]:
                findings.append(
                    self.violation("undriven net: node has no fanin and is not a primary input",
                                   location=f"node {name}")
                )
            if floating[i]:
                findings.append(
                    self.violation("floating net: node has no fanout and is not a primary output",
                                   location=f"node {name}")
                )
        return findings


class TierRangeRule(GraphRule):
    """Tier assignments must lie within the declared M3D tier count."""

    id = "M3D103"
    severity = Severity.ERROR
    description = "tier IDs must be in [0, num_tiers)"

    def check(self, graph: CircuitGraph, config: RuleConfig) -> list[Violation]:
        num_tiers = graph.num_tiers
        if isinstance(num_tiers, bool) or not isinstance(num_tiers, (int, np.integer)):
            return [
                self.violation(f"num_tiers must be an integer, got {num_tiers!r}",
                               location=f"graph {graph.name}")
            ]
        findings: list[Violation] = []
        if num_tiers < 1:
            findings.append(
                self.violation(f"num_tiers must be >= 1, got {num_tiers}",
                               location=f"graph {graph.name}")
            )
        if not _is_index_array(graph.tier):
            return findings  # M3D106 reports the tier dtype
        tier = graph.tier.ravel()
        for i in np.nonzero((tier < 0) | (tier >= max(num_tiers, 1)))[0]:
            name = graph.node_names[int(i)] if int(i) < len(graph.node_names) else str(int(i))
            findings.append(
                self.violation(
                    f"tier {int(tier[i])} out of range [0, {num_tiers})",
                    location=f"node {name}",
                )
            )
        return findings


class MivAdjacencyRule(GraphRule):
    """MIV edges must connect adjacent tiers — an MIV physically spans one
    inter-layer dielectric; larger spans indicate corrupt placement data."""

    id = "M3D104"
    severity = Severity.ERROR
    description = "MIV edges must cross exactly one tier boundary"

    def check(self, graph: CircuitGraph, config: RuleConfig) -> list[Violation]:
        if not (_edges_usable(graph) and _tiers_usable(graph) and _edge_types_usable(graph)):
            return []
        tier = graph.tier
        miv = np.flatnonzero(graph.edge_type == EDGE_MIV)
        a, b = tier[graph.edge_index[:, miv]]
        # max - 1 == min is exactly "span 1" without the wrap |a - b| has on
        # extreme int64 tiers; the span itself is rendered with Python ints.
        bad = miv[np.maximum(a, b) - 1 != np.minimum(a, b)]
        findings: list[Violation] = []
        for e in bad.tolist():
            u, v = graph.edge_index[:, e].tolist()
            span = abs(int(tier[u]) - int(tier[v]))
            findings.append(
                self.violation(
                    f"MIV edge spans {span} tier boundaries (must be exactly 1)",
                    location=_edge_location(graph, e),
                    span=span,
                )
            )
        return findings


class EdgeTierConsistencyRule(GraphRule):
    """Intra-tier (NET) edges must not cross tiers; edge types must be known."""

    id = "M3D105"
    severity = Severity.ERROR
    description = "edge type must agree with endpoint tiers"

    def check(self, graph: CircuitGraph, config: RuleConfig) -> list[Violation]:
        if not (_edges_usable(graph) and _tiers_usable(graph) and _edge_types_usable(graph)):
            return []
        et, tier = graph.edge_type, graph.tier
        src, dst = graph.edge_index
        unknown = (et != EDGE_NET) & (et != EDGE_MIV)
        crossing = (et == EDGE_NET) & (tier[src] != tier[dst])
        findings: list[Violation] = []
        for e in np.flatnonzero(unknown | crossing).tolist():
            loc = _edge_location(graph, e)
            if unknown[e]:
                findings.append(self.violation(f"unknown edge type {int(et[e])}", location=loc))
            else:
                u, v = int(tier[src[e]]), int(tier[dst[e]])
                findings.append(
                    self.violation(
                        f"intra-tier edge connects different tiers ({u} -> {v}); "
                        "tier-crossing edges must be typed as MIV",
                        location=loc,
                    )
                )
        return findings


class SchemaConformanceRule(GraphRule):
    """Feature matrices must match the schema: shapes, dtypes, index bounds."""

    id = "M3D106"
    severity = Severity.ERROR
    description = "node/edge arrays must conform to the schema (shape + dtype)"

    def check(self, graph: CircuitGraph, config: RuleConfig) -> list[Violation]:
        findings: list[Violation] = []
        n = graph.num_nodes
        loc = f"graph {graph.name}"

        def bad(message: str) -> None:
            findings.append(self.violation(message, location=loc))

        x = graph.x
        if not isinstance(x, np.ndarray) or x.ndim != 2 or x.shape != (n, len(FEATURE_COLUMNS)):
            shape = getattr(x, "shape", None)
            bad(f"node features must have shape ({n}, {len(FEATURE_COLUMNS)}), got {shape}")
        elif x.dtype != NODE_DTYPE:
            bad(f"node features must be {NODE_DTYPE}, got {x.dtype}")

        for label, arr, dtype in (
            ("tier", graph.tier, INDEX_DTYPE),
            ("is_pi", graph.is_pi, np.dtype(bool)),
            ("is_po", graph.is_po, np.dtype(bool)),
        ):
            if not isinstance(arr, np.ndarray) or arr.shape != (n,):
                bad(f"{label} must have shape ({n},), got {getattr(arr, 'shape', None)}")
            elif arr.dtype != dtype:
                bad(f"{label} must be {dtype}, got {arr.dtype}")

        ei = graph.edge_index
        if not isinstance(ei, np.ndarray) or ei.ndim != 2 or ei.shape[0] != 2:
            bad(f"edge_index must have shape (2, E), got {getattr(ei, 'shape', None)}")
        else:
            if ei.dtype != INDEX_DTYPE:
                bad(f"edge_index must be {INDEX_DTYPE}, got {ei.dtype}")
            e = ei.shape[1]
            if e and _is_index_array(ei) and (ei.min() < 0 or ei.max() >= n):
                bad(f"edge_index references nodes outside [0, {n})")
            et = graph.edge_type
            if not isinstance(et, np.ndarray) or et.shape != (e,):
                bad(f"edge_type must have shape ({e},), got {getattr(et, 'shape', None)}")
            elif et.dtype != INDEX_DTYPE:
                bad(f"edge_type must be {INDEX_DTYPE}, got {et.dtype}")
            ea = graph.edge_attr
            if (
                not isinstance(ea, np.ndarray)
                or ea.ndim != 2
                or ea.shape != (e, len(EDGE_FEATURE_COLUMNS))
            ):
                bad(
                    f"edge features must have shape ({e}, {len(EDGE_FEATURE_COLUMNS)}), "
                    f"got {getattr(ea, 'shape', None)}"
                )
            elif ea.dtype != NODE_DTYPE:
                bad(f"edge features must be {NODE_DTYPE}, got {ea.dtype}")

        fault = graph.fault_index
        if fault is not None:
            if isinstance(fault, bool) or not isinstance(fault, (int, np.integer)):
                bad(f"fault_index must be an integer, got {fault!r}")
            elif not (0 <= fault < n):
                bad(f"fault_index {fault} out of range [0, {n})")
        return findings


class NonFiniteFeaturesRule(GraphRule):
    """NaN/Inf features silently poison training; reject them statically."""

    id = "M3D107"
    severity = Severity.ERROR
    description = "node/edge features must be finite"

    def check(self, graph: CircuitGraph, config: RuleConfig) -> list[Violation]:
        findings: list[Violation] = []
        for label, arr in (("node", graph.x), ("edge", graph.edge_attr)):
            if not isinstance(arr, np.ndarray) or not np.issubdtype(arr.dtype, np.floating):
                continue  # shape/dtype problems are M3D106's finding
            n_bad = int(np.count_nonzero(~np.isfinite(arr)))
            if n_bad:
                findings.append(
                    self.violation(
                        f"{n_bad} non-finite value(s) in {label} features",
                        location=f"graph {graph.name}",
                    )
                )
        return findings


class FanoutBoundRule(GraphRule):
    """Excessive fan-out is electrically implausible and usually indicates a
    collapsed net in extraction; warn rather than reject."""

    id = "M3D108"
    severity = Severity.WARNING
    description = "fan-out should not exceed the configured bound"

    def check(self, graph: CircuitGraph, config: RuleConfig) -> list[Violation]:
        if not _edges_usable(graph):
            return []
        findings: list[Violation] = []
        outdeg = graph.out_degrees()
        for i in np.nonzero(outdeg > config.max_fanout)[0]:
            findings.append(
                self.violation(
                    f"fan-out {int(outdeg[i])} exceeds bound {config.max_fanout}",
                    location=f"node {graph.node_names[int(i)]}",
                )
            )
        return findings


#: Full built-in catalog, in rule-id order.
BUILTIN_GRAPH_RULES: tuple[type[GraphRule], ...] = (
    CyclicTimingGraphRule,
    DanglingNetRule,
    TierRangeRule,
    MivAdjacencyRule,
    EdgeTierConsistencyRule,
    SchemaConformanceRule,
    NonFiniteFeaturesRule,
    FanoutBoundRule,
)
