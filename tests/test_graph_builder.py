"""Netlist → graph construction and schema conformance."""

from dataclasses import replace

import numpy as np
import pytest

from fixture_graphs import clean_netlist, make_clean_graph
from m3d_fault_loc.data.synthetic import random_netlist
from m3d_fault_loc.graph.builder import build_circuit_graph
from m3d_fault_loc.graph.netlist import Gate, Netlist
from m3d_fault_loc.graph.schema import (
    EDGE_MIV,
    EDGE_NET,
    FEATURE_COLUMNS,
    NODE_DTYPE,
    CircuitGraph,
)


def test_clean_graph_schema_shapes():
    g = make_clean_graph()
    assert g.x.shape == (4, len(FEATURE_COLUMNS))
    assert g.x.dtype == NODE_DTYPE
    assert g.edge_index.shape == (2, 3)
    assert g.num_nodes == 4 and g.num_edges == 3


def test_edge_types_follow_tiers():
    g = make_clean_graph()
    for e in range(g.num_edges):
        u, v = int(g.edge_index[0, e]), int(g.edge_index[1, e])
        expected = EDGE_NET if g.tier[u] == g.tier[v] else EDGE_MIV
        assert int(g.edge_type[e]) == expected


def test_miv_edges_cost_more_wire_delay():
    g = make_clean_graph()
    miv = g.edge_attr[g.edge_type == EDGE_MIV, 0]
    net = g.edge_attr[g.edge_type == EDGE_NET, 0]
    assert miv.size and net.size
    assert miv.min() > net.max()


def test_fault_label_maps_to_named_gate():
    g = make_clean_graph()
    assert g.node_names[g.fault_index] == "g0"


def test_slack_delta_zero_without_observed_netlist():
    g = make_clean_graph()
    assert np.allclose(g.feature("slack_delta"), 0.0)


def test_fanin_fanout_features_match_degrees():
    g = make_clean_graph()
    assert np.array_equal(g.feature("fanin"), g.in_degrees().astype(np.float32))
    assert np.array_equal(g.feature("fanout"), g.out_degrees().astype(np.float32))


def test_cyclic_netlist_is_rejected_at_build_time():
    netlist = Netlist(name="loop", num_tiers=1)
    netlist.add_gate(Gate(name="a", cell="INV", fanins=("b",), tier=0, delay=1.0))
    netlist.add_gate(Gate(name="b", cell="INV", fanins=("a",), tier=0, delay=1.0))
    with pytest.raises(ValueError, match="cycle"):
        build_circuit_graph(netlist)


def test_unknown_fanin_is_rejected():
    netlist = Netlist(name="ghost", num_tiers=1)
    netlist.add_gate(Gate(name="a", cell="INV", fanins=("ghost",), tier=0, delay=1.0))
    with pytest.raises(KeyError, match="unknown fanin"):
        build_circuit_graph(netlist)


def test_json_roundtrip_preserves_everything(tmp_path):
    g = make_clean_graph()
    g2 = CircuitGraph.load(g.save(tmp_path / "g.json"))
    assert g2.node_names == g.node_names
    assert g2.fault_index == g.fault_index
    assert g2.x.dtype == g.x.dtype
    assert np.array_equal(g2.x, g.x)
    assert np.array_equal(g2.edge_index, g.edge_index)


def test_random_netlist_is_contract_clean_across_tier_counts():
    from m3d_fault_loc.analysis.engine import default_engine

    engine = default_engine()
    rng = np.random.default_rng(11)
    for num_tiers in (1, 2, 3):
        netlist = random_netlist(rng, n_gates=25, n_inputs=4, num_tiers=num_tiers)
        graph = build_circuit_graph(netlist)
        assert engine.run(graph) == [], f"num_tiers={num_tiers}"


def _observed_with(netlist: Netlist, name: str, **changes) -> Netlist:
    gates = dict(netlist.gates)
    gates[name] = replace(gates[name], **changes)
    return replace(netlist, gates=gates)


def test_observed_with_rewired_fanin_is_rejected():
    netlist = clean_netlist()
    observed = _observed_with(netlist.with_extra_delay("g0", 1.0), "g1", fanins=("pi1",))
    with pytest.raises(ValueError, match="observed gate 'g1' has fanins"):
        build_circuit_graph(netlist, observed=observed, fault_gate="g0")


def test_observed_with_gate_on_another_tier_is_rejected():
    netlist = clean_netlist()
    observed = _observed_with(netlist.with_extra_delay("g0", 1.0), "g0", tier=1)
    with pytest.raises(ValueError, match="observed gate 'g0' is on tier 1"):
        build_circuit_graph(netlist, observed=observed, fault_gate="g0")


def test_observed_missing_a_gate_is_rejected():
    netlist = clean_netlist()
    faulty = netlist.with_extra_delay("g0", 1.0)
    gates = {name: gate for name, gate in faulty.gates.items() if name != "g1"}
    with pytest.raises(ValueError, match="missing gate 'g1'"):
        build_circuit_graph(netlist, observed=replace(faulty, gates=gates), fault_gate="g0")


def test_observed_with_an_extra_gate_is_rejected():
    netlist = clean_netlist()
    observed = netlist.with_extra_delay("g0", 1.0)
    observed.add_gate(Gate(name="spare", cell="BUF", fanins=("g1",), tier=1, delay=1.0))
    with pytest.raises(ValueError, match="observed gate 'spare' is not in the nominal"):
        build_circuit_graph(netlist, observed=observed, fault_gate="g0")


def test_observed_with_other_outputs_or_wire_delays_is_rejected():
    netlist = clean_netlist()
    faulty = netlist.with_extra_delay("g0", 1.0)
    with pytest.raises(ValueError, match="primary outputs differ"):
        build_circuit_graph(netlist, observed=replace(faulty, primary_outputs=("g0", "g1")))
    with pytest.raises(ValueError, match="wire/MIV delays differ"):
        build_circuit_graph(netlist, observed=replace(faulty, miv_delay=0.3))


def test_observed_differing_in_delays_only_builds():
    netlist = clean_netlist()
    graph = build_circuit_graph(netlist, observed=netlist.with_extra_delay("g0", 1.0))
    assert graph.feature("slack_delta").max() > 0.0
