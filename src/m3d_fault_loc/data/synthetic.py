"""Synthetic M3D netlist generation.

Generates random combinational DAGs placed across M3D tiers, with the
placement constrained so that every tier-crossing edge spans adjacent tiers
only — the same invariant the ``m3dlint`` contract checker enforces
(real M3D flows cannot route an MIV through an intermediate tier silently).
"""

from __future__ import annotations

import numpy as np

from m3d_fault_loc.graph.netlist import COMB_CELLS, PI_CELL, Gate, Netlist
from m3d_fault_loc.graph.timing import insertion_order_critical_path

_CELL_FANIN = {"INV": 1, "BUF": 1, "AND2": 2, "OR2": 2, "NAND2": 2, "NOR2": 2, "XOR2": 2}


def random_netlist(
    rng: np.random.Generator,
    n_gates: int = 40,
    n_inputs: int = 6,
    num_tiers: int = 2,
    name: str = "synthetic",
    slack_margin: float = 1.15,
) -> Netlist:
    """Generate a random, contract-clean netlist.

    Gates are created in topological order; each gate draws fanins from
    earlier gates whose tier is within one of its own, guaranteeing MIV
    adjacency by construction. The clock period is set to ``slack_margin``
    times the critical-path delay so nominal slacks are positive; because
    creation order is topological, one arrival pass in that order finds it.
    """
    if n_gates < 1 or n_inputs < 1:
        raise ValueError("need at least one gate and one input")
    netlist = Netlist(name=name, num_tiers=num_tiers)
    # reach[t]: the gates a new gate on tier t may read, in creation order.
    # Each gate joins the lists of its own and both adjacent tiers once
    # (joins[tier]), instead of every new gate rescanning all earlier ones.
    reach: list[list[Gate]] = [[] for _ in range(num_tiers)]
    joins = [reach[max(t - 1, 0) : t + 2] for t in range(num_tiers)]

    def place(gate: Gate) -> None:
        netlist.add_gate(gate)
        for candidates in joins[gate.tier]:
            candidates.append(gate)

    for i in range(n_inputs):
        place(
            Gate(
                name=f"pi{i}",
                cell=PI_CELL,
                fanins=(),
                tier=int(rng.integers(num_tiers)),
                delay=0.0,
            )
        )
    for i in range(n_gates):
        tier = int(rng.integers(num_tiers))
        candidates = reach[tier]
        if not candidates:
            # Reachable only for num_tiers >= 3: re-anchor the gate onto the
            # tier of a random existing driver so adjacency always holds.
            existing = list(netlist.gates.values())
            anchor = existing[int(rng.integers(len(existing)))]
            tier = anchor.tier
            candidates = reach[tier]
        cell = COMB_CELLS[int(rng.integers(len(COMB_CELLS)))]
        k = min(_CELL_FANIN[cell], len(candidates))
        picks = rng.choice(len(candidates), size=k, replace=False)
        place(
            Gate(
                name=f"g{i}",
                cell=cell,
                fanins=tuple(candidates[p].name for p in picks.tolist()),
                tier=tier,
                delay=float(rng.uniform(0.5, 1.5)),
            )
        )

    # A PI nothing reads would be a floating net (contract rule M3D102):
    # hang a buffer off each unused input so every net is observable. The
    # buffers read only PIs, so they never change which gates are read.
    used = {fi for g in netlist.gates.values() for fi in g.fanins}
    for idx, pi in enumerate(sorted(netlist.primary_inputs)):
        if pi not in used:
            netlist.add_gate(
                Gate(
                    name=f"obs{idx}",
                    cell="BUF",
                    fanins=(pi,),
                    tier=netlist.gates[pi].tier,
                    delay=float(rng.uniform(0.5, 1.5)),
                )
            )

    netlist.primary_outputs = tuple(
        sorted(n for n, g in netlist.gates.items() if n not in used and not g.is_primary_input)
    )
    netlist.clock_period = insertion_order_critical_path(netlist) * slack_margin
    return netlist
