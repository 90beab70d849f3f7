"""Static timing analysis over a gate-level netlist.

Classic topological-order arrival/required propagation. Slack is
``required - arrival`` at each gate's output pin; a delay fault shows up as a
localized slack degradation that propagates downstream.

A netlist's structure is built once into a :class:`Topology` (Kahn order,
fanin/fanout index lists, each edge's wire/MIV delay), and :func:`propagate`
walks plain lists over it. A delay fault changes gate delays only, so the
nominal and observed timing of one sample share one topology and one pass:
:func:`propagate` takes several per-gate delay vectors at once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from m3d_fault_loc.graph.netlist import Netlist


@dataclass
class TimingResult:
    """Per-gate arrival, required, and slack times."""

    arrival: dict[str, float]
    required: dict[str, float]
    slack: dict[str, float]
    critical_path_delay: float


@dataclass
class IndexedTiming:
    """One delay vector's timing, as lists aligned with :attr:`Topology.order`."""

    arrival: list[float]
    required: list[float]
    slack: list[float]
    critical_path_delay: float


@dataclass(frozen=True)
class Topology:
    """One netlist's structure in Kahn order, shared by every STA pass over it.

    Positions index :attr:`order`. Fanin edges keep each gate's fanin order
    (the graph's edge order); fanout edges list sinks in netlist insertion
    order. Each edge carries its wire/MIV delay, computed once.
    """

    #: Gate names in Kahn topological order (the built graph's node order).
    order: list[str]
    #: Gate name -> position in :attr:`order`.
    index: dict[str, int]
    #: Per position: ``(driver position, edge delay)`` for each fanin.
    fanin_edges: list[list[tuple[int, float]]]
    #: Per position: ``(sink position, edge delay)`` for each fanout.
    fanout_edges: list[list[tuple[int, float]]]
    #: Per position: whether required time starts at the clock period (a
    #: primary output, or a gate nothing reads).
    endpoint: list[bool]

    @classmethod
    def of(cls, netlist: Netlist) -> Topology:
        """Sort ``netlist`` once (Kahn) and index its edges.

        Raises ``KeyError`` for a fanin naming no gate and ``ValueError`` for
        a combinational cycle — timing is undefined on cyclic graphs, which is
        exactly the condition the ``m3dlint`` contract checker guards against
        upstream.
        """
        gates = list(netlist.gates.values())
        slot = {gate.name: i for i, gate in enumerate(gates)}
        drivers: list[list[int]] = []
        sinks: list[list[int]] = [[] for _ in gates]
        for i, gate in enumerate(gates):
            row: list[int] = []
            for fi in gate.fanins:
                j = slot.get(fi)
                if j is None:
                    raise KeyError(f"gate {gate.name} references unknown fanin {fi}")
                row.append(j)
                sinks[j].append(i)
            drivers.append(row)
        indeg = [len(row) for row in drivers]
        # Ties break by popping the largest name: node order is part of every
        # graph's bytes, so this rule must never change.
        ready = sorted((i for i, d in enumerate(indeg) if d == 0), key=lambda i: gates[i].name)
        kahn: list[int] = []
        while ready:
            i = ready.pop()
            kahn.append(i)
            for s in sinks[i]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(kahn) != len(gates):
            cyclic = sorted(gate.name for gate, d in zip(gates, indeg) if d > 0)
            raise ValueError(f"netlist has a combinational cycle through: {cyclic[:8]}")

        position = [0] * len(gates)
        for p, i in enumerate(kahn):
            position[i] = p
        tiers = [gate.tier for gate in gates]
        used_tiers = set(tiers)
        wire = {(a, b): netlist.tier_delay(a, b) for a in used_tiers for b in used_tiers}
        fanin_edges = [
            [(position[j], wire[tiers[j], tiers[i]]) for j in drivers[i]] for i in kahn
        ]
        # Sinks in insertion order, one entry per fanin occurrence.
        fanout_edges: list[list[tuple[int, float]]] = [[] for _ in gates]
        for p in position:
            for u, d in fanin_edges[p]:
                fanout_edges[u].append((p, d))
        order = [gates[i].name for i in kahn]
        po_set = set(netlist.primary_outputs)
        return cls(
            order=order,
            index={name: p for p, name in enumerate(order)},
            fanin_edges=fanin_edges,
            fanout_edges=fanout_edges,
            endpoint=[name in po_set or not edges for name, edges in zip(order, fanout_edges)],
        )

    def gate_delays(self, netlist: Netlist) -> list[float]:
        """``netlist``'s gate delays in this topology's order."""
        gates = netlist.gates
        return [gates[name].delay for name in self.order]


def propagate(
    topology: Topology,
    delays: Sequence[Sequence[float]],
    periods: Sequence[float | None],
) -> list[IndexedTiming]:
    """Arrival, required and slack for each delay vector, in one walk.

    ``delays[k]`` holds per-position gate delays; ``periods[k]`` is its clock
    period, or ``None`` to use that vector's critical-path delay (so its
    worst slack is zero). Every float is the textbook operation on the same
    operands: arrival is ``max(0, arrival[fi] + edge) + delay``; required is
    ``(required[fo] - delay[fo]) - edge``, minimized over fanouts.
    """
    n = len(topology.order)
    arrivals = [[0.0] * n for _ in delays]
    for v, edges in enumerate(topology.fanin_edges):
        for arrival, delay in zip(arrivals, delays):
            at = 0.0
            for u, d in edges:
                t = arrival[u] + d
                if t > at:
                    at = t
            arrival[v] = at + delay[v]

    criticals = [max(arrival, default=0.0) for arrival in arrivals]
    starts = [c if p is None else p for c, p in zip(criticals, periods)]
    requireds = [[0.0] * n for _ in delays]
    inf = float("inf")
    endpoint = topology.endpoint
    fanout_edges = topology.fanout_edges
    for v in range(n - 1, -1, -1):
        edges = fanout_edges[v]
        for required, delay, start in zip(requireds, delays, starts):
            req = start if endpoint[v] else inf
            for w, d in edges:
                t = required[w] - delay[w] - d
                if t < req:
                    req = t
            required[v] = req

    return [
        IndexedTiming(
            arrival=arrival,
            required=required,
            slack=[r - a for r, a in zip(required, arrival)],
            critical_path_delay=critical,
        )
        for arrival, required, critical in zip(arrivals, requireds, criticals)
    ]


def compute_timing(netlist: Netlist, clock_period: float | None = None) -> TimingResult:
    """Propagate arrival and required times, returning per-gate slack.

    ``clock_period`` overrides the netlist's own clock period; when neither is
    set, the critical-path delay is used (so the nominal worst slack is zero).
    """
    topology = Topology.of(netlist)
    period = clock_period if clock_period is not None else (netlist.clock_period or None)
    (timing,) = propagate(topology, [topology.gate_delays(netlist)], [period])
    order = topology.order
    return TimingResult(
        arrival=dict(zip(order, timing.arrival)),
        required=dict(zip(reversed(order), reversed(timing.required))),
        slack=dict(zip(order, timing.slack)),
        critical_path_delay=timing.critical_path_delay,
    )


def insertion_order_critical_path(netlist: Netlist) -> float:
    """Critical-path delay of a netlist whose insertion order is topological.

    One arrival pass in insertion order, with no sort and no required-time
    pass: valid only when every gate was added after all of its fanins, as
    :func:`~m3d_fault_loc.data.synthetic.random_netlist` builds them. A gate
    added before one of its fanins raises ``ValueError``.
    """
    gates = netlist.gates
    arrival: dict[str, float] = {}
    for gate in gates.values():
        at = 0.0
        for fi in gate.fanins:
            if fi not in arrival:
                raise ValueError(
                    f"gate {gate.name} reads {fi}, which no earlier gate defines: "
                    "insertion order is not topological"
                )
            t = arrival[fi] + netlist.tier_delay(gates[fi].tier, gate.tier)
            if t > at:
                at = t
        arrival[gate.name] = at + gate.delay
    return max(arrival.values(), default=0.0)
