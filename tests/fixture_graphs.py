"""Fixture graphs for contract-checker tests.

Each ``make_*`` helper returns a graph seeded with exactly the defect its
name says (the clean base graph passes the full rule catalog). They are
built programmatically from the real builder so fixtures can't silently
drift from the schema.
"""

from __future__ import annotations

import numpy as np

from m3d_fault_loc.graph.builder import build_circuit_graph
from m3d_fault_loc.graph.netlist import Gate, Netlist
from m3d_fault_loc.graph.schema import EDGE_NET, INDEX_DTYPE, NODE_DTYPE, CircuitGraph


def clean_netlist(num_tiers: int = 2) -> Netlist:
    """Small handcrafted 2-tier netlist: 2 PIs, AND, INV chain, 1 PO."""
    netlist = Netlist(name="clean", num_tiers=num_tiers)
    netlist.add_gate(Gate(name="pi0", cell="PI", fanins=(), tier=0, delay=0.0))
    netlist.add_gate(Gate(name="pi1", cell="PI", fanins=(), tier=1, delay=0.0))
    netlist.add_gate(Gate(name="g0", cell="AND2", fanins=("pi0", "pi1"), tier=0, delay=1.0))
    netlist.add_gate(Gate(name="g1", cell="INV", fanins=("g0",), tier=1, delay=0.8))
    netlist.primary_outputs = ("g1",)
    netlist.clock_period = 5.0
    return netlist


def make_clean_graph(num_tiers: int = 2) -> CircuitGraph:
    """The clean netlist as a graph, labeled with a fault at g0."""
    return build_circuit_graph(clean_netlist(num_tiers), fault_gate="g0")


def _node_index(graph: CircuitGraph, name: str) -> int:
    return graph.node_names.index(name)


def _append_edge(graph: CircuitGraph, src: str, dst: str, edge_type: int) -> CircuitGraph:
    u, v = _node_index(graph, src), _node_index(graph, dst)
    graph.edge_index = np.concatenate(
        [graph.edge_index, np.asarray([[u], [v]], dtype=INDEX_DTYPE)], axis=1
    )
    graph.edge_type = np.concatenate(
        [graph.edge_type, np.asarray([edge_type], dtype=INDEX_DTYPE)]
    )
    graph.edge_attr = np.concatenate(
        [graph.edge_attr, np.asarray([[0.02]], dtype=NODE_DTYPE)], axis=0
    )
    return graph


def make_cyclic_graph() -> CircuitGraph:
    """g1 feeds back into g0: a combinational timing loop (M3D101).

    The back-edge is typed as an MIV (g1 is on tier 1, g0 on tier 0) so the
    only broken invariant is acyclicity.
    """
    graph = make_clean_graph()
    graph.name = "cyclic"
    return _append_edge(graph, "g1", "g0", edge_type=1)


def make_dangling_graph() -> CircuitGraph:
    """An extra node with no fanin and no fanout (M3D102, both directions)."""
    graph = make_clean_graph()
    graph.name = "dangling"
    graph.node_names.append("orphan")
    graph.x = np.concatenate([graph.x, np.zeros((1, graph.x.shape[1]), dtype=NODE_DTYPE)])
    graph.tier = np.concatenate([graph.tier, np.asarray([0], dtype=INDEX_DTYPE)])
    graph.is_pi = np.concatenate([graph.is_pi, np.asarray([False])])
    graph.is_po = np.concatenate([graph.is_po, np.asarray([False])])
    return graph


def make_tier_out_of_range_graph() -> CircuitGraph:
    """One node claims tier 5 in a 2-tier stack (M3D103)."""
    graph = make_clean_graph()
    graph.name = "bad-tier"
    graph.tier = graph.tier.copy()
    graph.tier[_node_index(graph, "g1")] = 5
    return graph


def three_tier_chain_netlist() -> Netlist:
    """pi0 -> g0 -> g1 climbing one tier per edge on a 3-tier stack."""
    netlist = Netlist(name="nonadjacent-miv", num_tiers=3)
    netlist.add_gate(Gate(name="pi0", cell="PI", fanins=(), tier=0, delay=0.0))
    netlist.add_gate(Gate(name="g0", cell="BUF", fanins=("pi0",), tier=1, delay=1.0))
    netlist.add_gate(Gate(name="g1", cell="INV", fanins=("g0",), tier=2, delay=0.9))
    netlist.primary_outputs = ("g1",)
    netlist.clock_period = 5.0
    return netlist


def make_nonadjacent_miv_graph() -> CircuitGraph:
    """A 3-tier stack where an MIV edge spans tiers 0 -> 2 (M3D104)."""
    graph = build_circuit_graph(three_tier_chain_netlist())
    # Corrupt placement: hoist g0 to tier 0 so the g0->g1 MIV now spans 2 tiers.
    # The pi0->g0 edge collapses to intra-tier but keeps its MIV type, which is
    # fine for this fixture's target rule (span 0 is also not 1).
    graph.tier = graph.tier.copy()
    graph.tier[_node_index(graph, "g0")] = 0
    return graph


def make_crosstier_net_graph() -> CircuitGraph:
    """An intra-tier (NET) edge whose endpoints sit on different tiers (M3D105)."""
    graph = make_clean_graph()
    graph.name = "crosstier-net"
    # pi1 (tier 1) -> g0 (tier 0) is a legitimate MIV; mislabel it as NET.
    u, v = _node_index(graph, "pi1"), _node_index(graph, "g0")
    graph.edge_type = graph.edge_type.copy()
    for e in range(graph.num_edges):
        if int(graph.edge_index[0, e]) == u and int(graph.edge_index[1, e]) == v:
            graph.edge_type[e] = EDGE_NET
    return graph


def make_bad_dtype_graph() -> CircuitGraph:
    """Node features stored as float64 instead of the schema dtype (M3D106)."""
    graph = make_clean_graph()
    graph.name = "bad-dtype"
    graph.x = graph.x.astype(np.float64)
    return graph


def make_nonfinite_graph() -> CircuitGraph:
    """A NaN smuggled into the slack features (M3D107)."""
    graph = make_clean_graph()
    graph.name = "nonfinite"
    graph.x = graph.x.copy()
    graph.x[0, 1] = np.nan
    return graph


def high_fanout_netlist(n_sinks: int = 4) -> Netlist:
    """One driver fanning out to ``n_sinks`` loads."""
    netlist = Netlist(name="high-fanout", num_tiers=2)
    netlist.add_gate(Gate(name="pi0", cell="PI", fanins=(), tier=0, delay=0.0))
    for i in range(n_sinks):
        netlist.add_gate(Gate(name=f"g{i}", cell="BUF", fanins=("pi0",), tier=0, delay=1.0))
    netlist.primary_outputs = tuple(f"g{i}" for i in range(n_sinks))
    netlist.clock_period = 5.0
    return netlist


def make_high_fanout_graph(n_sinks: int = 4) -> CircuitGraph:
    """One driver fanning out to ``n_sinks`` loads (M3D108 with a low bound)."""
    return build_circuit_graph(high_fanout_netlist(n_sinks))


#: The handcrafted netlists the fixture graphs are built from.
FIXTURE_NETLISTS = (clean_netlist, three_tier_chain_netlist, high_fanout_netlist)


#: fixture factory -> the single rule id it must trip.
VIOLATION_FIXTURES = {
    make_cyclic_graph: "M3D101",
    make_dangling_graph: "M3D102",
    make_tier_out_of_range_graph: "M3D103",
    make_nonadjacent_miv_graph: "M3D104",
    make_crosstier_net_graph: "M3D105",
    make_bad_dtype_graph: "M3D106",
    make_nonfinite_graph: "M3D107",
}
