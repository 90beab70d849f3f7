"""M3D11x contract rules: scenario payload gating.

These rules extend the structural M3D10x graph contract with *scenario*
payload checks — the shape of the ``meta`` blocks each generator writes.
They are not part of :func:`~m3d_fault_loc.analysis.engine.default_engine`;
:func:`~m3d_fault_loc.scenarios.registry.build_scenario_engine` composes the
structural rules, the shared tag rule (M3D110), and the requested scenario's
own rules into the engine the serving gate runs.

Gating policy (documented in ``docs/scenarios.md``):

- an **untagged** graph (no ``meta["scenario"]``) is servable under any
  scenario — unlabeled inference payloads and pre-scenario clients keep
  working; its scenario blocks are validated only if present;
- a **tagged** graph must match the engine's scenario (M3D110) and must
  carry that scenario's block, well-formed (M3D111–M3D114) — a generated
  payload that lost its physics is rejected, never silently mis-served.
"""

from __future__ import annotations

import math
from typing import Any

from m3d_fault_loc.analysis.engine import GraphRule, RuleConfig
from m3d_fault_loc.analysis.violations import Severity, Violation
from m3d_fault_loc.graph.schema import CircuitGraph

#: ``meta`` key carrying the scenario tag on generated graphs.
SCENARIO_META_KEY = "scenario"


def _meta(graph: CircuitGraph) -> dict[str, Any]:
    meta = graph.meta
    return meta if isinstance(meta, dict) else {}


def _tag(graph: CircuitGraph) -> Any:
    return _meta(graph).get(SCENARIO_META_KEY)


def _node_index(graph: CircuitGraph, gate: Any) -> int | None:
    try:
        return graph.node_names.index(gate)
    except (ValueError, TypeError):
        return None


def _finite_positive(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(
        value
    ) and value > 0


def _check_fault_entry(
    rule: GraphRule, graph: CircuitGraph, entry: Any, where: str
) -> list[Violation]:
    """Validate one ``{"gate": ..., "extra_delay": ...}`` fault record."""
    loc = f"graph {graph.name}"
    if not isinstance(entry, dict):
        return [rule.violation(f"{where} must be an object, got {type(entry).__name__}", loc)]
    findings: list[Violation] = []
    gate = entry.get("gate")
    if _node_index(graph, gate) is None:
        findings.append(rule.violation(f"{where} names unknown gate {gate!r}", loc))
    if not _finite_positive(entry.get("extra_delay")):
        findings.append(
            rule.violation(
                f"{where} extra_delay must be a finite positive number, "
                f"got {entry.get('extra_delay')!r}",
                loc,
            )
        )
    return findings


class ScenarioTagRule(GraphRule):
    """A graph tagged for scenario A must not be served through scenario B's
    pipeline — cross-scenario payloads get a structured rejection instead of
    a metric-poisoning wrong answer. Untagged graphs always pass."""

    id = "M3D110"
    severity = Severity.ERROR
    description = "scenario tag in meta must match the serving scenario"

    def __init__(self, expected: str):
        self.expected = expected

    def check(self, graph: CircuitGraph, config: RuleConfig) -> list[Violation]:
        tag = _tag(graph)
        if tag is None:
            return []
        if not isinstance(tag, str):
            return [
                self.violation(
                    f"meta scenario tag must be a string, got {type(tag).__name__}",
                    f"graph {graph.name}",
                )
            ]
        if tag != self.expected:
            return [
                self.violation(
                    f"graph is tagged for scenario {tag!r} but was submitted to "
                    f"the {self.expected!r} pipeline",
                    f"graph {graph.name}",
                    tag=tag,
                    expected=self.expected,
                )
            ]
        return []


class SingleDelayPayloadRule(GraphRule):
    """Legacy single-delay payloads: at most one fault, and the ``fault``
    block (when present) must agree with the localization label."""

    id = "M3D111"
    severity = Severity.ERROR
    description = "single_delay payloads carry at most one well-formed fault"

    def check(self, graph: CircuitGraph, config: RuleConfig) -> list[Violation]:
        meta = _meta(graph)
        findings: list[Violation] = []
        faults = meta.get("faults")
        if isinstance(faults, list) and len(faults) > 1:
            findings.append(
                self.violation(
                    f"multi-fault payload ({len(faults)} faults) submitted to the "
                    "single_delay pipeline; use scenario=multi_delay",
                    f"graph {graph.name}",
                )
            )
        block = meta.get("fault")
        if block is None:
            return findings
        findings.extend(_check_fault_entry(self, graph, block, 'meta["fault"]'))
        if isinstance(block, dict) and graph.fault_index is not None:
            idx = _node_index(graph, block.get("gate"))
            if idx is not None and idx != graph.fault_index:
                findings.append(
                    self.violation(
                        f'meta["fault"] gate {block.get("gate")!r} (node {idx}) disagrees '
                        f"with fault_index {graph.fault_index}",
                        f"graph {graph.name}",
                    )
                )
        return findings


class MultiDelayFaultSetRule(GraphRule):
    """Multi-delay payloads carry a distinct, well-formed fault set, and the
    localization label points at one of its members."""

    id = "M3D112"
    severity = Severity.ERROR
    description = "multi_delay payloads carry a consistent fault set in meta"

    def check(self, graph: CircuitGraph, config: RuleConfig) -> list[Violation]:
        tagged = _tag(graph) == "multi_delay"
        faults = _meta(graph).get("faults")
        loc = f"graph {graph.name}"
        if faults is None:
            if tagged:
                return [self.violation('multi_delay graph is missing meta["faults"]', loc)]
            return []
        if not isinstance(faults, list) or not faults:
            return [self.violation('meta["faults"] must be a non-empty list', loc)]
        findings: list[Violation] = []
        gates: list[Any] = []
        for i, entry in enumerate(faults):
            findings.extend(_check_fault_entry(self, graph, entry, f'meta["faults"][{i}]'))
            if isinstance(entry, dict):
                gates.append(entry.get("gate"))
        if len(set(gates)) != len(gates):
            findings.append(self.violation('meta["faults"] names a gate more than once', loc))
        if graph.fault_index is not None and not findings:
            members = {_node_index(graph, g) for g in gates}
            if graph.fault_index not in members:
                findings.append(
                    self.violation(
                        f"fault_index {graph.fault_index} is not a member of the "
                        'injected fault set in meta["faults"]',
                        loc,
                    )
                )
        return findings


class IntermittentActivationRule(GraphRule):
    """Intermittent payloads record the activation statistics the observed
    slacks were blended with — without them the sample is unreproducible."""

    id = "M3D113"
    severity = Severity.ERROR
    description = "intermittent_delay payloads carry valid activation statistics"

    def check(self, graph: CircuitGraph, config: RuleConfig) -> list[Violation]:
        tagged = _tag(graph) == "intermittent_delay"
        block = _meta(graph).get("fault")
        loc = f"graph {graph.name}"
        if not isinstance(block, dict):
            if tagged:
                return [
                    self.violation('intermittent_delay graph is missing meta["fault"]', loc)
                ]
            return []
        if not tagged and "activation_prob" not in block:
            return []  # a plain single-fault payload, not ours to judge
        findings = _check_fault_entry(self, graph, block, 'meta["fault"]')
        prob = block.get("activation_prob")
        if (
            not isinstance(prob, (int, float))
            or isinstance(prob, bool)
            or not math.isfinite(prob)
            or not 0.0 < prob <= 1.0
        ):
            findings.append(
                self.violation(f"activation_prob must be in (0, 1], got {prob!r}", loc)
            )
        n_obs = block.get("n_observations")
        if not isinstance(n_obs, int) or isinstance(n_obs, bool) or n_obs < 1:
            findings.append(
                self.violation(f"n_observations must be a positive integer, got {n_obs!r}", loc)
            )
        activations = block.get("activations")
        if not isinstance(activations, int) or isinstance(activations, bool) or activations < 1:
            findings.append(
                self.violation(
                    f"activations must be a positive integer (an unactivated fault is "
                    f"unobservable), got {activations!r}",
                    loc,
                )
            )
        elif isinstance(n_obs, int) and not isinstance(n_obs, bool) and activations > n_obs:
            findings.append(
                self.violation(
                    f"activations ({activations}) exceeds n_observations ({n_obs})", loc
                )
            )
        return findings


class SeuTransientMaskRule(GraphRule):
    """SEU payloads carry a per-node transient mask marking the upset sites;
    the flip list and the mask must agree, and the label must be a flip."""

    id = "M3D114"
    severity = Severity.ERROR
    description = "seu_bitflip payloads carry a consistent transient mask + flip set"

    def check(self, graph: CircuitGraph, config: RuleConfig) -> list[Violation]:
        tagged = _tag(graph) == "seu_bitflip"
        block = _meta(graph).get("seu")
        loc = f"graph {graph.name}"
        if block is None:
            if tagged:
                return [self.violation('seu_bitflip graph is missing meta["seu"]', loc)]
            return []
        if not isinstance(block, dict):
            return [self.violation('meta["seu"] must be an object', loc)]
        findings: list[Violation] = []
        mask = block.get("transient_mask")
        mask_ok = (
            isinstance(mask, list)
            and len(mask) == graph.num_nodes
            and all(isinstance(v, int) and not isinstance(v, bool) and v in (0, 1) for v in mask)
        )
        if not mask_ok:
            findings.append(
                self.violation(
                    f"transient_mask must be a 0/1 list of length {graph.num_nodes}", loc
                )
            )
        elif sum(mask) < 1:
            findings.append(
                self.violation("transient_mask marks no upset site (all zeros)", loc)
            )
        flips = block.get("flips")
        if not isinstance(flips, list) or not flips:
            findings.append(self.violation('meta["seu"]["flips"] must be a non-empty list', loc))
            return findings
        flip_indices: set[int] = set()
        for i, entry in enumerate(flips):
            findings.extend(_check_fault_entry(self, graph, entry, f'meta["seu"]["flips"][{i}]'))
            if isinstance(entry, dict):
                idx = _node_index(graph, entry.get("gate"))
                if idx is not None:
                    flip_indices.add(idx)
                    if mask_ok and mask[idx] != 1:
                        findings.append(
                            self.violation(
                                f"flip site {entry.get('gate')!r} (node {idx}) is not "
                                "marked in transient_mask",
                                loc,
                            )
                        )
        if graph.fault_index is not None and flip_indices and graph.fault_index not in flip_indices:
            findings.append(
                self.violation(
                    f"fault_index {graph.fault_index} is not an upset site", loc
                )
            )
        return findings
