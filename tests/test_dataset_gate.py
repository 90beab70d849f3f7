"""Dataset loader: the contract gate is mandatory and has no bypass."""

import inspect

import numpy as np
import pytest

from fixture_graphs import make_bad_dtype_graph, make_clean_graph, make_high_fanout_graph
from m3d_fault_loc.analysis.engine import RuleConfig, default_engine
from m3d_fault_loc.data.dataset import CircuitGraphDataset, GraphContractError
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario


def test_clean_graphs_load():
    ds = CircuitGraphDataset.from_graphs([make_clean_graph()])
    assert len(ds) == 1
    assert ds.warnings == []


def test_error_graph_is_refused():
    with pytest.raises(GraphContractError) as exc_info:
        CircuitGraphDataset.from_graphs([make_clean_graph(), make_bad_dtype_graph()])
    assert exc_info.value.graph_name == "bad-dtype"
    assert any(v.rule_id == "M3D106" for v in exc_info.value.violations)


def test_gate_has_no_bypass_flag():
    """The gate is mandatory by design: no strict/skip/validate knobs."""
    for method in (CircuitGraphDataset.from_graphs, CircuitGraphDataset.load_dir):
        params = set(inspect.signature(method).parameters)
        assert not params & {"strict", "skip_checks", "validate", "force"}


def test_warnings_are_surfaced_not_fatal():
    engine = default_engine(RuleConfig(max_fanout=2))
    ds = CircuitGraphDataset.from_graphs([make_high_fanout_graph(n_sinks=4)], engine=engine)
    assert len(ds) == 1
    assert any(v.rule_id == "M3D108" for v in ds.warnings)


def test_load_dir_gates_serialized_graphs(tmp_path):
    make_clean_graph().save(tmp_path / "ok.json")
    make_bad_dtype_graph().save(tmp_path / "bad.json")
    with pytest.raises(GraphContractError):
        CircuitGraphDataset.load_dir(tmp_path)


def test_save_dir_roundtrip(tmp_path):
    graphs = get_scenario("single_delay").generate(ScenarioSpec(n_graphs=4, n_gates=15, seed=7))
    ds = CircuitGraphDataset.from_graphs(graphs)
    ds.save_dir(tmp_path / "out")
    reloaded = CircuitGraphDataset.load_dir(tmp_path / "out")
    assert len(reloaded) == 4
    assert [g.fault_index for g in reloaded] == [g.fault_index for g in ds]


def test_split_partitions_dataset():
    graphs = get_scenario("single_delay").generate(ScenarioSpec(n_graphs=10, n_gates=12, seed=3))
    ds = CircuitGraphDataset.from_graphs(graphs)
    train, test = ds.split(np.random.default_rng(3), test_fraction=0.3)
    assert len(train) + len(test) == 10
    assert len(test) == 3


def test_split_refuses_empty_train_split():
    """A len-1 dataset would put its only graph in test; raise instead."""
    rng = np.random.default_rng(3)
    ds = CircuitGraphDataset.from_graphs([make_clean_graph()])
    with pytest.raises(ValueError, match="train split would be empty"):
        ds.split(rng, test_fraction=0.2)


def test_split_smallest_viable_dataset_keeps_one_per_side():
    rng = np.random.default_rng(3)
    ds = CircuitGraphDataset.from_graphs([make_clean_graph(), make_clean_graph()])
    train, test = ds.split(rng, test_fraction=0.5)
    assert len(train) == 1 and len(test) == 1


def test_gate_graph_single_graph_fast_path():
    """The serving layer's per-request gate has dataset-gate semantics."""
    from m3d_fault_loc.data.dataset import gate_graph

    assert gate_graph(make_clean_graph()) == []
    engine = default_engine(RuleConfig(max_fanout=2))
    warnings = gate_graph(make_high_fanout_graph(n_sinks=4), engine)
    assert any(v.rule_id == "M3D108" for v in warnings)
    with pytest.raises(GraphContractError) as exc_info:
        gate_graph(make_bad_dtype_graph())
    assert any(v.rule_id == "M3D106" for v in exc_info.value.violations)
