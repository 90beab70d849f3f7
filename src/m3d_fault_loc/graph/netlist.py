"""Gate-level netlist data structures for monolithic 3D ICs.

A :class:`Netlist` is a flat collection of :class:`Gate` records. Primary
inputs are modeled as zero-delay ``PI`` gates; primary outputs are ordinary
gates listed in :attr:`Netlist.primary_outputs`. Each gate carries the M3D
tier it is placed on; an edge between gates on different tiers is a
monolithic inter-tier via (MIV) connection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

PI_CELL = "PI"

#: Combinational cell types understood by the synthetic generator.
COMB_CELLS = ("INV", "BUF", "AND2", "OR2", "NAND2", "NOR2", "XOR2")


@dataclass(frozen=True)
class Gate:
    """One gate instance in the netlist."""

    name: str
    cell: str
    fanins: tuple[str, ...]
    tier: int
    delay: float

    @property
    def is_primary_input(self) -> bool:
        return self.cell == PI_CELL


@dataclass
class Netlist:
    """A gate-level netlist placed across ``num_tiers`` M3D tiers."""

    name: str
    num_tiers: int
    gates: dict[str, Gate] = field(default_factory=dict)
    primary_outputs: tuple[str, ...] = ()
    clock_period: float = 0.0
    #: Extra wire delay charged to every tier-crossing (MIV) edge.
    miv_delay: float = 0.1
    #: Wire delay charged to every intra-tier edge.
    wire_delay: float = 0.02

    def add_gate(self, gate: Gate) -> None:
        if gate.name in self.gates:
            raise ValueError(f"duplicate gate name: {gate.name}")
        self.gates[gate.name] = gate

    @property
    def primary_inputs(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.gates.values() if g.is_primary_input)

    def tier_delay(self, driver_tier: int, sink_tier: int) -> float:
        """Wire delay of a connection between gates on these tiers (MIV-aware)."""
        if driver_tier != sink_tier:
            return self.wire_delay + self.miv_delay * abs(driver_tier - sink_tier)
        return self.wire_delay

    def with_extra_delay(self, gate_name: str, extra: float) -> Netlist:
        """Return a copy of this netlist with ``extra`` delay added to one gate."""
        if gate_name not in self.gates:
            raise KeyError(f"no such gate: {gate_name}")
        gates = dict(self.gates)
        gates[gate_name] = replace(gates[gate_name], delay=gates[gate_name].delay + extra)
        return Netlist(
            name=self.name,
            num_tiers=self.num_tiers,
            gates=gates,
            primary_outputs=self.primary_outputs,
            clock_period=self.clock_period,
            miv_delay=self.miv_delay,
            wire_delay=self.wire_delay,
        )
