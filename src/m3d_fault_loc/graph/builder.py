"""Netlist → :class:`CircuitGraph` construction.

The builder sorts the nominal netlist once, runs static timing on it (and,
for fault samples, on an observed/faulty variant of the same structure) in
one fused pass over that topology, and packs per-gate features into the
schema layout the model consumes.
"""

from __future__ import annotations

import numpy as np

from m3d_fault_loc.graph.netlist import Netlist
from m3d_fault_loc.graph.schema import (
    EDGE_MIV,
    EDGE_NET,
    FEATURE_COLUMNS,
    INDEX_DTYPE,
    NODE_DTYPE,
    CircuitGraph,
)
from m3d_fault_loc.graph.timing import Topology, propagate


def build_circuit_graph(
    netlist: Netlist,
    observed: Netlist | None = None,
    fault_gate: str | None = None,
) -> CircuitGraph:
    """Build a schema-conformant graph from a netlist.

    ``observed`` is the netlist as measured on silicon (e.g. with an injected
    delay fault); when omitted, observed timing equals nominal timing and all
    slack deltas are zero. It must differ from ``netlist`` in gate delays
    only — the same gates, fanins, tiers, outputs and wire delays — or
    ``ValueError`` names the first difference. ``fault_gate`` names the
    fault-origin gate and is recorded as the localization label.
    """
    topology = Topology.of(netlist)
    order = topology.order
    index = topology.index
    delays = topology.gate_delays(netlist)
    if observed is None:
        (nominal,) = propagate(topology, [delays], [netlist.clock_period or None])
        measured = nominal
    else:
        _check_same_structure(netlist, observed)
        nominal, measured = propagate(
            topology,
            [delays, topology.gate_delays(observed)],
            [netlist.clock_period or None, netlist.clock_period or observed.clock_period or None],
        )

    n = len(order)
    gates = [netlist.gates[name] for name in order]
    po_set = set(netlist.primary_outputs)
    tier = np.fromiter((g.tier for g in gates), dtype=INDEX_DTYPE, count=n)
    is_pi = np.fromiter((g.is_primary_input for g in gates), dtype=bool, count=n)
    is_po = np.fromiter((name in po_set for name in order), dtype=bool, count=n)

    # Edge arrays are built CSR-style — one flat pass over the fanin lists
    # straight into preallocated numpy buffers (sinks by run-length repeat of
    # the per-gate fanin counts) — instead of appending to four Python lists
    # edge by edge. Iteration order matches the nested loop it replaces, so
    # edge order (and therefore graph digests) is unchanged.
    fanin_counts = np.fromiter(
        (len(edges) for edges in topology.fanin_edges), dtype=INDEX_DTYPE, count=n
    )
    n_edges = int(fanin_counts.sum())
    sources = np.fromiter(
        (u for edges in topology.fanin_edges for u, _ in edges), dtype=INDEX_DTYPE, count=n_edges
    )
    sinks = np.repeat(np.arange(n, dtype=INDEX_DTYPE), fanin_counts)

    edge_index = np.vstack([sources, sinks]).reshape(2, -1)
    tier_span = np.abs(tier[sources] - tier[sinks]) if n_edges else np.zeros(0, dtype=INDEX_DTYPE)
    edge_type = np.where(tier_span != 0, EDGE_MIV, EDGE_NET).astype(INDEX_DTYPE)
    edge_attr = (
        (netlist.wire_delay + netlist.miv_delay * tier_span.astype(np.float64))
        .astype(NODE_DTYPE)
        .reshape(-1, 1)
    )

    fanout = np.bincount(sources, minlength=n).astype(np.float64) if n_edges else np.zeros(n)

    tier_denom = max(netlist.num_tiers - 1, 1)
    nominal_slack = np.array(nominal.slack, dtype=np.float64)
    observed_slack = np.array(measured.slack, dtype=np.float64)
    x = np.empty((n, len(FEATURE_COLUMNS)), dtype=NODE_DTYPE)
    x[:, 0] = delays
    x[:, 1] = nominal_slack
    x[:, 2] = observed_slack
    x[:, 3] = nominal_slack - observed_slack
    x[:, 4] = fanin_counts
    x[:, 5] = fanout
    x[:, 6] = tier / tier_denom
    x[:, 7] = is_pi
    x[:, 8] = is_po

    return CircuitGraph(
        name=netlist.name,
        num_tiers=netlist.num_tiers,
        node_names=list(order),
        x=x,
        tier=tier,
        is_pi=is_pi,
        is_po=is_po,
        edge_index=edge_index,
        edge_type=edge_type,
        edge_attr=edge_attr,
        fault_index=index[fault_gate] if fault_gate is not None else None,
        meta={"clock_period": netlist.clock_period, "critical_path": nominal.critical_path_delay},
    )


def _check_same_structure(netlist: Netlist, observed: Netlist) -> None:
    """Raise ``ValueError`` unless ``observed`` differs from ``netlist`` in gate delays only.

    The fused timing pass times ``observed`` over ``netlist``'s topology, so
    a rewired, re-tiered, missing or extra gate would otherwise yield wrong
    slack features silently.
    """
    observed_gates = observed.gates
    for name, gate in netlist.gates.items():
        seen = observed_gates.get(name)
        if seen is None:
            raise ValueError(f"observed netlist {observed.name!r} is missing gate {name!r}")
        if seen.fanins != gate.fanins:
            raise ValueError(
                f"observed gate {name!r} has fanins {list(seen.fanins)}, "
                f"nominal has {list(gate.fanins)}"
            )
        if seen.tier != gate.tier:
            raise ValueError(
                f"observed gate {name!r} is on tier {seen.tier}, nominal on tier {gate.tier}"
            )
    if len(observed_gates) != len(netlist.gates):
        extra = next(name for name in observed_gates if name not in netlist.gates)
        raise ValueError(f"observed gate {extra!r} is not in the nominal netlist")
    if set(observed.primary_outputs) != set(netlist.primary_outputs):
        raise ValueError("observed netlist's primary outputs differ from the nominal netlist's")
    if (observed.wire_delay, observed.miv_delay) != (netlist.wire_delay, netlist.miv_delay):
        raise ValueError("observed netlist's wire/MIV delays differ from the nominal netlist's")
