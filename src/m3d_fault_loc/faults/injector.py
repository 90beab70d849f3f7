"""Delay-fault injection into gate-level netlists.

A delay fault adds extra propagation delay at a single gate (the classic
small-delay-defect model); the observed timing then shows degraded slack at
the fault site and everything downstream of it. The localizer's job is to
recover the origin from that footprint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from m3d_fault_loc.graph.builder import build_circuit_graph
from m3d_fault_loc.graph.netlist import Netlist
from m3d_fault_loc.graph.schema import CircuitGraph


@dataclass(frozen=True)
class DelayFault:
    """One injected small-delay defect."""

    gate: str
    extra_delay: float


def fault_sites(netlist: Netlist) -> list[str]:
    """The gates a fault may hit: every non-PI gate, sorted by name."""
    return sorted(name for name, g in netlist.gates.items() if not g.is_primary_input)


def inject_delay_fault(
    netlist: Netlist,
    rng: np.random.Generator,
    extra_delay: float | None = None,
    gate: str | None = None,
) -> tuple[Netlist, DelayFault]:
    """Inject a delay fault at a random (or given) non-PI gate.

    Returns the faulty netlist and the fault descriptor. ``extra_delay``
    defaults to a random multiple (2x–4x) of the victim gate's own delay so
    the defect is observable but not trivially saturating.
    """
    candidates = fault_sites(netlist)
    if not candidates:
        raise ValueError("netlist has no non-PI gates to inject a fault into")
    if gate is None:
        gate = candidates[int(rng.integers(len(candidates)))]
    elif gate not in netlist.gates or netlist.gates[gate].is_primary_input:
        raise ValueError(f"cannot inject a delay fault at {gate!r}")
    if extra_delay is None:
        extra_delay = float(netlist.gates[gate].delay * rng.uniform(2.0, 4.0))
    return netlist.with_extra_delay(gate, extra_delay), DelayFault(gate=gate, extra_delay=extra_delay)


def inject_delay_faults(
    netlist: Netlist, rng: np.random.Generator, k: int, low: float, high: float
) -> tuple[Netlist, list[dict[str, float | str]]]:
    """Slow ``k`` distinct random non-PI gates (all of them if fewer) at once.

    Each victim gets ``U(low, high)`` times its own delay extra. Returns the
    faulty netlist and the ``{"gate", "extra_delay"}`` records in draw order.
    """
    candidates = fault_sites(netlist)
    picks = rng.choice(len(candidates), size=min(k, len(candidates)), replace=False)
    faulty = netlist
    faults: list[dict[str, float | str]] = []
    for p in picks:
        gate = candidates[int(p)]
        extra = float(netlist.gates[gate].delay * rng.uniform(low, high))
        faulty = faulty.with_extra_delay(gate, extra)
        faults.append({"gate": gate, "extra_delay": extra})
    return faulty, faults


def make_fault_sample(netlist: Netlist, rng: np.random.Generator) -> CircuitGraph:
    """Build a labeled training sample: graph features + fault-origin label."""
    faulty, fault = inject_delay_fault(netlist, rng)
    graph = build_circuit_graph(netlist, observed=faulty, fault_gate=fault.gate)
    graph.meta["fault"] = {"gate": fault.gate, "extra_delay": fault.extra_delay}
    return graph
