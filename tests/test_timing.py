"""Static timing analysis: arrival/required propagation and slack."""

from dataclasses import replace

import numpy as np
import pytest

from fixture_graphs import FIXTURE_NETLISTS
from m3d_fault_loc.graph.builder import build_circuit_graph
from m3d_fault_loc.graph.netlist import Gate, Netlist
from m3d_fault_loc.graph.schema import NODE_DTYPE
from m3d_fault_loc.graph.timing import (
    TimingResult,
    Topology,
    compute_timing,
    insertion_order_critical_path,
    propagate,
)


def chain_netlist(delays, clock_period=None):
    netlist = Netlist(name="chain", num_tiers=1, wire_delay=0.0)
    netlist.add_gate(Gate(name="pi0", cell="PI", fanins=(), tier=0, delay=0.0))
    prev = "pi0"
    for i, d in enumerate(delays):
        netlist.add_gate(Gate(name=f"g{i}", cell="BUF", fanins=(prev,), tier=0, delay=d))
        prev = f"g{i}"
    netlist.primary_outputs = (prev,)
    if clock_period is not None:
        netlist.clock_period = clock_period
    return netlist


def test_arrival_accumulates_along_chain():
    timing = compute_timing(chain_netlist([1.0, 2.0, 3.0]))
    assert timing.arrival["g2"] == pytest.approx(6.0)
    assert timing.critical_path_delay == pytest.approx(6.0)


def test_slack_against_clock_period():
    timing = compute_timing(chain_netlist([1.0, 2.0, 3.0], clock_period=10.0))
    assert timing.slack["g2"] == pytest.approx(4.0)
    # Upstream gates carry the same path slack on a pure chain.
    assert timing.slack["g0"] == pytest.approx(4.0)


def test_default_period_gives_zero_worst_slack():
    timing = compute_timing(chain_netlist([1.0, 2.0]))
    assert min(timing.slack.values()) == pytest.approx(0.0)


def test_extra_delay_reduces_downstream_slack_only():
    nominal = compute_timing(chain_netlist([1.0, 1.0, 1.0], clock_period=10.0))
    faulty_nl = chain_netlist([1.0, 1.0, 1.0], clock_period=10.0).with_extra_delay("g1", 2.0)
    faulty = compute_timing(faulty_nl)
    # Fault at g1: slack at and below the fault degrades by the extra delay.
    assert nominal.slack["g1"] - faulty.slack["g1"] == pytest.approx(2.0)
    assert nominal.slack["g2"] - faulty.slack["g2"] == pytest.approx(2.0)
    # g0 drives the faulty path, so its required time also tightens.
    assert nominal.slack["g0"] - faulty.slack["g0"] == pytest.approx(2.0)


def test_miv_edges_add_wire_delay():
    netlist = Netlist(name="miv", num_tiers=2, wire_delay=0.0, miv_delay=0.5)
    netlist.add_gate(Gate(name="pi0", cell="PI", fanins=(), tier=0, delay=0.0))
    netlist.add_gate(Gate(name="g0", cell="BUF", fanins=("pi0",), tier=1, delay=1.0))
    netlist.primary_outputs = ("g0",)
    timing = compute_timing(netlist)
    assert timing.arrival["g0"] == pytest.approx(1.5)


def test_reconvergent_paths_take_max_arrival():
    netlist = Netlist(name="reconv", num_tiers=1, wire_delay=0.0)
    netlist.add_gate(Gate(name="pi0", cell="PI", fanins=(), tier=0, delay=0.0))
    netlist.add_gate(Gate(name="fast", cell="BUF", fanins=("pi0",), tier=0, delay=1.0))
    netlist.add_gate(Gate(name="slow", cell="BUF", fanins=("pi0",), tier=0, delay=4.0))
    netlist.add_gate(Gate(name="join", cell="AND2", fanins=("fast", "slow"), tier=0, delay=1.0))
    netlist.primary_outputs = ("join",)
    timing = compute_timing(netlist)
    assert timing.arrival["join"] == pytest.approx(5.0)
    # The fast side has positive slack; the slow side is critical.
    assert timing.slack["slow"] == pytest.approx(0.0)
    assert timing.slack["fast"] == pytest.approx(3.0)


def test_topological_order_rejects_cycles():
    netlist = Netlist(name="loop", num_tiers=1)
    netlist.add_gate(Gate(name="a", cell="INV", fanins=("b",), tier=0, delay=1.0))
    netlist.add_gate(Gate(name="b", cell="INV", fanins=("a",), tier=0, delay=1.0))
    with pytest.raises(ValueError, match="cycle"):
        Topology.of(netlist)


def test_random_netlist_has_positive_nominal_slack():
    from m3d_fault_loc.data.synthetic import random_netlist

    rng = np.random.default_rng(5)
    netlist = random_netlist(rng, n_gates=30, n_inputs=5, slack_margin=1.2)
    timing = compute_timing(netlist)
    assert min(timing.slack.values()) > 0.0


# --- Oracle: a dict-based STA loop with its own Kahn sort -------------------
#
# Edge delays are looked up by gate name per edge, so the list-based pass
# over a shared topology is checked with ``==`` against an independent
# implementation, not against itself.


def edge_delay(netlist: Netlist, driver: str, sink: str) -> float:
    du, dv = netlist.gates[driver], netlist.gates[sink]
    if du.tier != dv.tier:
        return netlist.wire_delay + netlist.miv_delay * abs(du.tier - dv.tier)
    return netlist.wire_delay


def oracle_order(netlist: Netlist) -> list[str]:
    indeg = {name: 0 for name in netlist.gates}
    fanouts: dict[str, list[str]] = {name: [] for name in netlist.gates}
    for gate in netlist.gates.values():
        for fi in gate.fanins:
            indeg[gate.name] += 1
            fanouts[fi].append(gate.name)
    ready = sorted(name for name, d in indeg.items() if d == 0)
    order: list[str] = []
    while ready:
        name = ready.pop()
        order.append(name)
        for fo in fanouts[name]:
            indeg[fo] -= 1
            if indeg[fo] == 0:
                ready.append(fo)
    assert len(order) == len(netlist.gates), "oracle needs an acyclic netlist"
    return order


def oracle_timing(netlist: Netlist, clock_period: float | None = None) -> TimingResult:
    order = oracle_order(netlist)
    fanouts: dict[str, list[str]] = {name: [] for name in netlist.gates}
    for gate in netlist.gates.values():
        for fi in gate.fanins:
            fanouts[fi].append(gate.name)

    arrival: dict[str, float] = {}
    for name in order:
        gate = netlist.gates[name]
        at_inputs = 0.0
        for fi in gate.fanins:
            at_inputs = max(at_inputs, arrival[fi] + edge_delay(netlist, fi, name))
        arrival[name] = at_inputs + gate.delay

    critical = max(arrival.values(), default=0.0)
    period = clock_period if clock_period is not None else (netlist.clock_period or critical)

    po_set = set(netlist.primary_outputs)
    required: dict[str, float] = {}
    for name in reversed(order):
        req = period if (name in po_set or not fanouts[name]) else float("inf")
        for fo in fanouts[name]:
            gate = netlist.gates[fo]
            req = min(req, required[fo] - gate.delay - edge_delay(netlist, name, fo))
        required[name] = req

    slack = {name: required[name] - arrival[name] for name in order}
    return TimingResult(
        arrival=arrival, required=required, slack=slack, critical_path_delay=critical
    )


def assert_same_timing(got: TimingResult, want: TimingResult) -> None:
    assert list(got.arrival) == list(want.arrival)
    assert list(got.required) == list(want.required)
    assert got.arrival == want.arrival
    assert got.required == want.required
    assert got.slack == want.slack
    assert got.critical_path_delay == want.critical_path_delay


def random_netlists() -> list[Netlist]:
    from m3d_fault_loc.data.synthetic import random_netlist

    rng = np.random.default_rng(2024)
    return [
        random_netlist(rng, n_gates=n_gates, n_inputs=n_inputs, num_tiers=tiers)
        for tiers in (2, 3, 4)
        for n_gates, n_inputs in ((30, 6), (120, 8), (60, 1))
    ]


def fault_variants(netlist: Netlist, seed: int) -> list[Netlist]:
    """Single, multi (chained) and aging-style (every gate) extra-delay variants."""
    rng = np.random.default_rng(seed)
    logic = sorted(name for name, g in netlist.gates.items() if not g.is_primary_input)
    single = netlist.with_extra_delay(logic[int(rng.integers(len(logic)))], 1.7)
    multi = netlist
    for p in rng.choice(len(logic), size=min(3, len(logic)), replace=False):
        name = logic[int(p)]
        multi = multi.with_extra_delay(name, float(netlist.gates[name].delay * rng.uniform(2, 4)))
    aged = netlist
    for name in logic:
        aged = aged.with_extra_delay(name, netlist.gates[name].delay * float(rng.uniform(0, 0.3)))
    return [single, multi, aged]


def non_topological_netlist() -> Netlist:
    """Reconvergent netlist whose gates were added sinks-first."""
    netlist = Netlist(name="backwards", num_tiers=2)
    netlist.add_gate(Gate(name="join", cell="AND2", fanins=("b", "a"), tier=1, delay=0.7))
    netlist.add_gate(Gate(name="b", cell="BUF", fanins=("a", "pi1"), tier=1, delay=1.3))
    netlist.add_gate(Gate(name="a", cell="INV", fanins=("pi0",), tier=0, delay=0.9))
    netlist.add_gate(Gate(name="pi1", cell="PI", fanins=(), tier=1, delay=0.0))
    netlist.add_gate(Gate(name="pi0", cell="PI", fanins=(), tier=0, delay=0.0))
    netlist.primary_outputs = ("join",)
    return netlist


def netlist_id(netlist: Netlist) -> str:
    return f"{netlist.name}-{netlist.num_tiers}t-{len(netlist.gates)}g"


ORACLE_NETLISTS = [
    *(factory() for factory in FIXTURE_NETLISTS),
    non_topological_netlist(),
    *random_netlists(),
]


@pytest.mark.parametrize("netlist", ORACLE_NETLISTS, ids=netlist_id)
@pytest.mark.parametrize("clock_period", [None, 0.0, 7.25])
def test_compute_timing_matches_oracle(netlist, clock_period):
    assert Topology.of(netlist).order == oracle_order(netlist)
    assert_same_timing(compute_timing(netlist, clock_period), oracle_timing(netlist, clock_period))
    for variant in fault_variants(netlist, seed=len(netlist.gates)):
        assert_same_timing(
            compute_timing(variant, clock_period), oracle_timing(variant, clock_period)
        )


@pytest.mark.parametrize("netlist", ORACLE_NETLISTS, ids=netlist_id)
def test_zero_own_period_falls_back_to_critical_path(netlist):
    unclocked = replace(netlist, clock_period=0.0)
    assert_same_timing(compute_timing(unclocked), oracle_timing(unclocked))


@pytest.mark.parametrize("netlist", ORACLE_NETLISTS, ids=netlist_id)
def test_fused_builder_pass_matches_two_oracle_passes(netlist):
    """The builder times nominal and observed in one pass over one topology."""
    for observed in fault_variants(netlist, seed=7):
        graph = build_circuit_graph(netlist, observed=observed)
        nominal = oracle_timing(netlist)
        measured = oracle_timing(observed, clock_period=netlist.clock_period or None)
        assert graph.node_names == oracle_order(netlist)
        want_nominal = np.array([nominal.slack[n] for n in graph.node_names])
        want_observed = np.array([measured.slack[n] for n in graph.node_names])
        assert np.array_equal(graph.x[:, 1], want_nominal.astype(NODE_DTYPE))
        assert np.array_equal(graph.x[:, 2], want_observed.astype(NODE_DTYPE))
        assert np.array_equal(
            graph.x[:, 3], (want_nominal - want_observed).astype(NODE_DTYPE)
        )
        assert graph.meta["critical_path"] == nominal.critical_path_delay


def test_propagate_several_vectors_equals_one_at_a_time():
    netlist = random_netlists()[4]
    topology = Topology.of(netlist)
    vectors = [topology.gate_delays(v) for v in fault_variants(netlist, seed=3)]
    periods = [None, 9.5, netlist.clock_period]
    fused = propagate(topology, vectors, periods)
    for vector, period, got in zip(vectors, periods, fused):
        assert propagate(topology, [vector], [period]) == [got]


@pytest.mark.parametrize("netlist", random_netlists(), ids=netlist_id)
def test_insertion_order_critical_path_matches_oracle(netlist):
    assert insertion_order_critical_path(netlist) == oracle_timing(netlist).critical_path_delay
    assert netlist.clock_period == oracle_timing(netlist).critical_path_delay * 1.15


def test_insertion_order_pass_refuses_non_topological_order():
    netlist = non_topological_netlist()
    with pytest.raises(ValueError, match="not topological"):
        insertion_order_critical_path(netlist)
    # compute_timing sorts first, so the same netlist times correctly.
    assert_same_timing(compute_timing(netlist), oracle_timing(netlist))
    assert compute_timing(netlist).critical_path_delay > 0.0
