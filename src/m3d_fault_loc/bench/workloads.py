"""Pinned synthetic workloads for the benchmark harness.

Every workload is fully determined by its :class:`WorkloadSpec` — a name,
a size point, and a seed — so two runs of ``m3d-bench`` on different days
(or different machines) time the model on byte-identical graphs. The specs
below are the blessed size sweep; changing them invalidates comparisons
against older ``BENCH_*.json`` files, so add new named sizes instead of
editing existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from m3d_fault_loc.data.synthetic import random_netlist
from m3d_fault_loc.faults.injector import inject_delay_fault
from m3d_fault_loc.graph.builder import build_circuit_graph
from m3d_fault_loc.graph.netlist import Netlist
from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.serve.cache import graph_digest


@dataclass(frozen=True)
class WorkloadSpec:
    """One pinned workload: seeded netlist population + fault samples."""

    name: str
    n_graphs: int
    n_gates: int
    n_inputs: int
    num_tiers: int = 2
    seed: int = 2022


#: The blessed size sweep (gate counts quadruple per step).
SIZES: dict[str, WorkloadSpec] = {
    "small": WorkloadSpec(name="small", n_graphs=24, n_gates=30, n_inputs=5),
    "medium": WorkloadSpec(name="medium", n_graphs=16, n_gates=120, n_inputs=8),
    "large": WorkloadSpec(name="large", n_graphs=8, n_gates=480, n_inputs=12, num_tiers=3),
}

#: Reduced sweep for ``--quick`` (CI smoke): same shape, much smaller.
QUICK_SIZES: dict[str, WorkloadSpec] = {
    "tiny": WorkloadSpec(name="tiny", n_graphs=6, n_gates=12, n_inputs=3),
    "small": WorkloadSpec(name="small", n_graphs=6, n_gates=30, n_inputs=5),
}


@dataclass
class Workload:
    """A realized workload: the arrays every bench case times against."""

    spec: WorkloadSpec
    #: (nominal netlist, observed/faulty netlist, fault gate) build inputs.
    build_inputs: list[tuple[Netlist, Netlist, str]]
    graphs: list[CircuitGraph]
    digests: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.digests:
            self.digests = [graph_digest(g) for g in self.graphs]


def build_workload(spec: WorkloadSpec) -> Workload:
    """Realize a spec into netlists, labeled fault graphs, and digests."""
    rng = np.random.default_rng(spec.seed)
    build_inputs: list[tuple[Netlist, Netlist, str]] = []
    graphs: list[CircuitGraph] = []
    for i in range(spec.n_graphs):
        netlist = random_netlist(
            rng,
            n_gates=spec.n_gates,
            n_inputs=spec.n_inputs,
            num_tiers=spec.num_tiers,
            name=f"bench-{spec.name}-{i}",
        )
        faulty, fault = inject_delay_fault(netlist, rng)
        build_inputs.append((netlist, faulty, fault.gate))
        graph = build_circuit_graph(netlist, observed=faulty, fault_gate=fault.gate)
        graph.meta["fault"] = {"gate": fault.gate, "extra_delay": fault.extra_delay}
        graphs.append(graph)
    return Workload(spec=spec, build_inputs=build_inputs, graphs=graphs)


def repeat_batch(workload: Workload, batch_size: int) -> list[CircuitGraph]:
    """A repeat-graph micro-batch: the workload's graphs cycled to
    ``batch_size`` — the shape a warm serving cache sees, where the same
    topologies recur across consecutive batches."""
    return [workload.graphs[i % len(workload.graphs)] for i in range(batch_size)]
