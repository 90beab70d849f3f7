"""``intermittent_delay`` — a delay fault that fires per observation.

Marginal defects (resistive opens, coupling) activate probabilistically:
across ``n_observations`` timing measurements the fault fires in only a
fraction of them, so the *averaged* observed slack shows an attenuated
footprint. Each sample injects one fault, draws the activation count from
``Binomial(n_observations, activation_prob)`` (forced ≥ 1 — a fault that
never fires is unobservable and unlabelable), and blends the observed-slack
features: ``observed = nominal − frac · Δfull`` where ``frac`` is the
realized activation fraction. M3D113 keeps the recorded activation
statistics consistent; the metric is hit@k on the attenuated footprint.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from m3d_fault_loc.analysis.engine import GraphRule
from m3d_fault_loc.faults.injector import inject_delay_fault
from m3d_fault_loc.graph.builder import build_circuit_graph
from m3d_fault_loc.graph.netlist import Netlist
from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.scenarios.base import SampleStep, Scenario
from m3d_fault_loc.scenarios.rules import IntermittentActivationRule


class IntermittentDelayScenario(Scenario):
    name = "intermittent_delay"
    description = "one delay fault active in a random fraction of observations"
    prefix = "intermittent-delay"

    #: Default observations averaged per sample (``spec.params`` overrides).
    default_n_observations = 16

    def sampler(self, params: dict[str, Any]) -> SampleStep:
        n_obs = int(params.get("n_observations", self.default_n_observations))
        if n_obs < 1:
            raise ValueError(f"intermittent_delay needs n_observations >= 1, got {n_obs}")
        fixed_prob = params.get("activation_prob")

        def sample(netlist: Netlist, rng: np.random.Generator) -> CircuitGraph:
            faulty, fault = inject_delay_fault(netlist, rng)
            prob = float(fixed_prob) if fixed_prob is not None else float(rng.uniform(0.2, 0.9))
            activations = max(1, int(rng.binomial(n_obs, prob)))
            frac = activations / n_obs
            graph = build_circuit_graph(netlist, observed=faulty, fault_gate=fault.gate)
            # Blend the full-activation footprint down to the realized
            # fraction: x[:,1] is nominal slack, x[:,2] observed, x[:,3] the
            # delta — an average over n_obs measurements of which only
            # `activations` saw the fault.
            full_delta = graph.x[:, 3].copy()
            graph.x[:, 3] = frac * full_delta
            graph.x[:, 2] = graph.x[:, 1] - graph.x[:, 3]
            graph.meta["fault"] = {
                "gate": fault.gate,
                "extra_delay": fault.extra_delay,
                "activation_prob": prob,
                "activations": activations,
                "n_observations": n_obs,
            }
            return graph

        return sample

    def contract_rules(self) -> list[GraphRule]:
        return [IntermittentActivationRule()]
