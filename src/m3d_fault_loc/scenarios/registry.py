"""The scenario table + per-scenario contract-engine composition.

:data:`SCENARIOS` maps each built-in scenario's name to its instance. A new
scenario is a :class:`~m3d_fault_loc.scenarios.base.Scenario` subclass
listed here; the CLIs' ``--scenario`` choices, the ``/localize`` lookup and
the ``m3dlint rules`` catalog all read this one table.

:func:`build_scenario_engine` composes the engine the serving gate runs for
one scenario: the structural graph contract (M3D10x), the shared tag rule
(M3D110, bound to the serving scenario), and the scenario's own payload
rules (M3D11x).
"""

from __future__ import annotations

from m3d_fault_loc.analysis.engine import GraphRule, RuleConfig, RuleEngine, default_engine
from m3d_fault_loc.scenarios.base import Scenario
from m3d_fault_loc.scenarios.intermittent_delay import IntermittentDelayScenario
from m3d_fault_loc.scenarios.multi_delay import MultiDelayScenario
from m3d_fault_loc.scenarios.rules import ScenarioTagRule
from m3d_fault_loc.scenarios.seu_bitflip import SeuBitflipScenario
from m3d_fault_loc.scenarios.single_delay import SingleDelayScenario

#: Every scenario, by name.
SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        IntermittentDelayScenario(),
        MultiDelayScenario(),
        SeuBitflipScenario(),
        SingleDelayScenario(),
    )
}

#: The scenario-payload rule catalog, in rule-id order (for ``m3dlint rules``
#: and the docs). M3D110 is parameterized by the serving scenario, so the
#: catalog entry binds a placeholder expectation.
SCENARIO_GRAPH_RULES: tuple[GraphRule, ...] = (
    ScenarioTagRule(expected="<serving scenario>"),
    *sorted((r for s in SCENARIOS.values() for r in s.contract_rules()), key=lambda r: r.id),
)


class UnknownScenarioError(KeyError):
    """A request named a scenario the table does not know."""

    def __init__(self, name: object, known: list[str]):
        self.name = name
        self.known = known
        super().__init__(f"unknown scenario {name!r}; registered: {', '.join(known) or '(none)'}")


def get_scenario(name: object) -> Scenario:
    """Look up a scenario; raises :class:`UnknownScenarioError` (→ HTTP 422)."""
    scenario = SCENARIOS.get(name) if isinstance(name, str) else None
    if scenario is None:
        raise UnknownScenarioError(name, scenario_names())
    return scenario


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def build_scenario_engine(
    name: str,
    base_engine: RuleEngine | None = None,
    config: RuleConfig | None = None,
) -> RuleEngine:
    """The contract engine gating one scenario's payloads.

    Composes ``base_engine`` (default: the structural M3D10x catalog) with
    the tag rule bound to ``name`` and the scenario's own M3D11x rules.
    ``base_engine`` must not itself be a scenario engine — re-registering
    M3D110 is a loud duplicate-id error.
    """
    scenario = get_scenario(name)
    base = base_engine if base_engine is not None else default_engine(config)
    engine = RuleEngine(config=base.config)
    for rule in base.rules:
        engine.register(rule)
    engine.register(ScenarioTagRule(expected=scenario.name))
    for rule in scenario.contract_rules():
        engine.register(rule)
    return engine
