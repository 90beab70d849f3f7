"""Fault-scenario platform.

Four built-in scenarios, listed by name in :data:`SCENARIOS`; each bundles
a per-netlist sample step (run by the one generation loop,
:meth:`Scenario.generate`), M3D11x contract rules gating its payloads, and
an eval metric. See ``docs/scenarios.md`` for adding a scenario, payload
schemas, and metrics.
"""

from m3d_fault_loc.scenarios.base import (
    DEFAULT_SCENARIO,
    Scenario,
    ScenarioSpec,
    hit_at_k,
    top_k,
)
from m3d_fault_loc.scenarios.registry import (
    SCENARIO_GRAPH_RULES,
    SCENARIOS,
    UnknownScenarioError,
    build_scenario_engine,
    get_scenario,
    scenario_names,
)

__all__ = [
    "DEFAULT_SCENARIO",
    "SCENARIOS",
    "SCENARIO_GRAPH_RULES",
    "Scenario",
    "ScenarioSpec",
    "UnknownScenarioError",
    "build_scenario_engine",
    "get_scenario",
    "hit_at_k",
    "scenario_names",
    "top_k",
]
