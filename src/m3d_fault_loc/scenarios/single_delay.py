"""``single_delay`` — the paper's original workload.

The sample step is :func:`~m3d_fault_loc.faults.injector.make_fault_sample`
on graphs named ``synthetic-<i>``, with no ``meta["scenario"]`` tag, so a
spec with the same seed yields graphs **byte-identical** to what
``m3d-train`` synthesized before scenarios existed — which is what keeps
saved datasets and golden serving responses stable.
"""

from __future__ import annotations

from typing import Any

from m3d_fault_loc.analysis.engine import GraphRule
from m3d_fault_loc.faults.injector import make_fault_sample
from m3d_fault_loc.scenarios.base import SampleStep, Scenario
from m3d_fault_loc.scenarios.rules import SingleDelayPayloadRule


class SingleDelayScenario(Scenario):
    name = "single_delay"
    description = "one small-delay defect per graph (the paper's workload)"
    prefix = "synthetic"

    def sampler(self, params: dict[str, Any]) -> SampleStep:
        return make_fault_sample

    def contract_rules(self) -> list[GraphRule]:
        return [SingleDelayPayloadRule()]
