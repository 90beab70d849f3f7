"""Scenario platform: table, determinism, generation loop, M3D11x rules, metrics.

The load-bearing guarantee is byte-level: the same spec + seed must
regenerate an identical dataset (scenario datasets are cached and shared by
digest); ``tests/test_generation_golden.py`` pins the bytes themselves.
"""

import json

import numpy as np
import pytest

from m3d_fault_loc.data.dataset import CircuitGraphDataset
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.scenarios import (
    DEFAULT_SCENARIO,
    ScenarioSpec,
    UnknownScenarioError,
    build_scenario_engine,
    get_scenario,
    hit_at_k,
    scenario_names,
    top_k,
)

SPEC = ScenarioSpec(n_graphs=4, n_gates=14, n_inputs=3, num_tiers=2, seed=77)

ALL_SCENARIOS = sorted(scenario_names())


def canonical(graphs):
    return [json.dumps(g.to_json_dict(), sort_keys=True) for g in graphs]


# ------------------------------------------------------------------- table


def test_four_builtin_scenarios_registered():
    assert ALL_SCENARIOS == [
        "intermittent_delay",
        "multi_delay",
        "seu_bitflip",
        "single_delay",
    ]
    assert DEFAULT_SCENARIO == "single_delay"


def test_unknown_scenario_raises_with_known_list():
    with pytest.raises(UnknownScenarioError) as exc:
        get_scenario("stuck_at_zero")
    assert exc.value.name == "stuck_at_zero"
    assert exc.value.known == ALL_SCENARIOS


# ------------------------------------------------------------- determinism


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_same_spec_same_seed_is_byte_identical(name):
    scenario = get_scenario(name)
    assert canonical(scenario.generate(SPEC)) == canonical(scenario.generate(SPEC))


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_different_seed_differs(name):
    scenario = get_scenario(name)
    other = ScenarioSpec(
        n_graphs=SPEC.n_graphs, n_gates=SPEC.n_gates, n_inputs=SPEC.n_inputs,
        num_tiers=SPEC.num_tiers, seed=SPEC.seed + 1,
    )
    assert canonical(scenario.generate(SPEC)) != canonical(scenario.generate(other))


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_generate_names_and_tags_every_graph(name):
    scenario = get_scenario(name)
    graphs = scenario.generate(SPEC)
    assert [g.name for g in graphs] == [f"{scenario.prefix}-{i}" for i in range(SPEC.n_graphs)]
    # single_delay stays untagged: pre-platform consumers see the dataset unchanged.
    expected_tag = None if name == DEFAULT_SCENARIO else name
    assert all(g.meta.get("scenario") == expected_tag for g in graphs)


@pytest.mark.parametrize(
    "name,params",
    [
        ("multi_delay", {"k": 0}),
        ("seu_bitflip", {"n_flips": 0}),
        ("intermittent_delay", {"n_observations": 0}),
    ],
)
def test_out_of_range_knob_raises_before_generating(name, params):
    with pytest.raises(ValueError, match=name):
        get_scenario(name).generate(ScenarioSpec(n_graphs=0, params=params))


# ------------------------------------------------------- contract gating


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_generated_datasets_gate_clean_under_own_engine(name):
    scenario = get_scenario(name)
    engine = build_scenario_engine(name)
    for graph in scenario.generate(SPEC):
        assert engine.run(graph) == []


def test_tagged_graph_under_wrong_engine_fails_m3d110():
    graph = get_scenario("seu_bitflip").generate(SPEC)[0]
    violations = build_scenario_engine("intermittent_delay").run(graph)
    assert "M3D110" in {v.rule_id for v in violations}


def test_untagged_graph_serves_under_any_scenario():
    graph = get_scenario("single_delay").generate(SPEC)[0]
    for name in ALL_SCENARIOS:
        assert build_scenario_engine(name).run(graph) == []


def test_multi_delay_missing_fault_set_fails_m3d112():
    graph = get_scenario("multi_delay").generate(SPEC)[0]
    del graph.meta["faults"]
    violations = build_scenario_engine("multi_delay").run(graph)
    assert "M3D112" in {v.rule_id for v in violations}


def test_multi_delay_label_outside_fault_set_fails_m3d112():
    graph = get_scenario("multi_delay").generate(SPEC)[0]
    graph.meta["faults"] = [
        f for f in graph.meta["faults"]
        if graph.node_names.index(f["gate"]) != graph.fault_index
    ] or [{"gate": graph.node_names[0], "extra_delay": 1.0}]
    violations = build_scenario_engine("multi_delay").run(graph)
    assert "M3D112" in {v.rule_id for v in violations}


def test_single_delay_rejects_multi_fault_payload_m3d111():
    graph = get_scenario("multi_delay").generate(SPEC)[0]
    graph.meta["scenario"] = "single_delay"
    violations = build_scenario_engine("single_delay").run(graph)
    assert "M3D111" in {v.rule_id for v in violations}


def test_intermittent_bad_activation_prob_fails_m3d113():
    graph = get_scenario("intermittent_delay").generate(SPEC)[0]
    graph.meta["fault"]["activation_prob"] = 1.5
    violations = build_scenario_engine("intermittent_delay").run(graph)
    assert "M3D113" in {v.rule_id for v in violations}


def test_seu_mask_length_mismatch_fails_m3d114():
    graph = get_scenario("seu_bitflip").generate(SPEC)[0]
    graph.meta["seu"]["transient_mask"] = graph.meta["seu"]["transient_mask"][:-1]
    violations = build_scenario_engine("seu_bitflip").run(graph)
    assert "M3D114" in {v.rule_id for v in violations}


def test_seu_flip_site_must_be_masked_m3d114():
    graph = get_scenario("seu_bitflip").generate(SPEC)[0]
    graph.meta["seu"]["transient_mask"] = [0] * graph.num_nodes
    violations = build_scenario_engine("seu_bitflip").run(graph)
    assert "M3D114" in {v.rule_id for v in violations}


# ------------------------------------------------------------ eval metrics


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_evaluate_returns_bounded_metrics(name):
    scenario = get_scenario(name)
    graphs = scenario.generate(SPEC)
    model = DelayFaultLocalizer(hidden=8, seed=1)
    metrics = scenario.evaluate(graphs, [model.node_scores(g) for g in graphs], k=3)
    assert metrics, f"{name} returned no metrics"
    for key, value in metrics.items():
        assert isinstance(value, float)
        assert np.isfinite(value), f"{name}.{key} is not finite"
        assert 0.0 <= value <= 1.0, (name, key, value)


def test_perfect_model_hits_multi_delay_fault_set():
    scenario = get_scenario("multi_delay")
    graphs = scenario.generate(SPEC)

    scores = []
    for graph in graphs:
        oracle = np.zeros(graph.num_nodes)
        for fault in graph.meta["faults"]:
            oracle[graph.node_names.index(fault["gate"])] = 1.0
        scores.append(oracle)

    metrics = scenario.evaluate(graphs, scores, k=4)
    assert metrics["coverage_at_k"] == 1.0
    assert metrics["hit_all_at_k"] == 1.0


def test_scenario_datasets_load_into_dataset_with_scenario_engine():
    graphs = get_scenario("intermittent_delay").generate(SPEC)
    dataset = CircuitGraphDataset.from_graphs(
        graphs, engine=build_scenario_engine("intermittent_delay")
    )
    assert len(dataset) == SPEC.n_graphs


def test_top_k_breaks_ties_toward_the_lowest_index_like_argmax():
    scores = np.array([0.5, 2.0, 1.0, 2.0, 2.0])
    assert top_k(scores, 1).tolist() == [int(np.argmax(scores))] == [1]
    assert top_k(scores, 4).tolist() == [1, 3, 4, 2]


@pytest.mark.parametrize("k", [0, -1])
def test_hit_at_k_rejects_k_below_one(k):
    graphs = get_scenario("single_delay").generate(SPEC)
    scores = [np.zeros(g.num_nodes) for g in graphs]
    with pytest.raises(ValueError, match="k must be >= 1"):
        hit_at_k(graphs, scores, k)
    with pytest.raises(ValueError, match="k must be >= 1"):
        hit_at_k([], [], k)


def test_hit_at_k_counts_fault_index_in_top_k():
    graphs = get_scenario("single_delay").generate(SPEC)
    scores = [np.zeros(g.num_nodes) for g in graphs]
    for i, (graph, graph_scores) in enumerate(zip(graphs, scores)):
        graph_scores[graph.fault_index] = 1.0 if i < 2 else -1.0  # first or last
    assert hit_at_k(graphs, scores, 1) == 2 / len(graphs)
    assert hit_at_k(graphs, scores, max(g.num_nodes for g in graphs)) == 1.0
