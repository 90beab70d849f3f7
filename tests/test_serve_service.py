"""LocalizationService: gating, the worker, caching, close."""

import threading
import time

import numpy as np
import pytest

from fixture_graphs import make_bad_dtype_graph, make_high_fanout_graph
from m3d_fault_loc.analysis.engine import RuleConfig, default_engine
from m3d_fault_loc.data.dataset import GraphContractError
from m3d_fault_loc.data.synthetic import random_netlist
from m3d_fault_loc.faults.injector import make_fault_sample
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario
from m3d_fault_loc.serve.service import LocalizationService
from m3d_fault_loc.testing.chaos import ChaosModelWrapper


@pytest.fixture(scope="module")
def graphs():
    return get_scenario("single_delay").generate(
        ScenarioSpec(n_graphs=8, n_gates=12, n_inputs=3, seed=5)
    )


def make_service(**kwargs):
    kwargs.setdefault("model", DelayFaultLocalizer(hidden=8, seed=2))
    return LocalizationService(**kwargs)


def test_service_is_built_on_exactly_one_model():
    with pytest.raises(TypeError, match="model"):
        LocalizationService()
    with pytest.raises(TypeError, match="registry"):
        LocalizationService(model=DelayFaultLocalizer(hidden=4), registry="unused")


def test_model_identity_is_the_weights_fingerprint():
    model = DelayFaultLocalizer(hidden=8, seed=2)
    with make_service(model=model) as service:
        info = service.describe_model()
    fingerprint = model.fingerprint()
    assert info["source"] == info["name"] == "adhoc"
    assert info["sha256"] == fingerprint
    assert info["version"] == fingerprint[:12]
    assert (info["in_dim"], info["hidden"]) == (model.in_dim, model.hidden)


def test_model_identity_is_fixed_for_the_service_life(graphs):
    with make_service() as service:
        before = service.describe_model()
        versions = {service.localize(graph).model_version for graph in graphs}
        service.describe_model()["version"] = "tampered"  # a copy, not the service's own
        assert service.describe_model() == before
    assert versions == {before["version"]}


def test_result_matches_direct_model_call(graphs):
    model = DelayFaultLocalizer(hidden=8, seed=2)
    with make_service(model=model) as service:
        result = service.localize(graphs[0], top_k=3)
    scores = model.node_scores(graphs[0])
    expected = np.argsort(scores)[::-1][:3]
    assert [entry["index"] for entry in result.top] == [int(i) for i in expected]
    assert result.num_nodes == graphs[0].num_nodes
    assert result.latency_s > 0
    payload = result.to_json_dict()
    assert payload["model"]["name"] == "adhoc"
    assert payload["latency_ms"] > 0


def test_repeat_request_hits_cache_without_forward_pass(graphs):
    with make_service() as service:
        first = service.localize(graphs[0])
        passes_after_first = service.m_forward_passes.value
        second = service.localize(graphs[0])
        assert first.cached is False
        assert second.cached is True
        assert second.top == first.top
        assert service.m_forward_passes.value == passes_after_first
        assert service.m_cache_hits.value == 1


def test_observations_of_one_netlist_share_one_aggregation_operator():
    """Each request is one die's timing over the same design: the operator
    cache is keyed by topology, so only the first observation builds it."""
    rng = np.random.default_rng(17)
    netlist = random_netlist(rng, n_gates=12, n_inputs=3)
    observations = [make_fault_sample(netlist, rng) for _ in range(6)]
    with make_service() as service:
        for graph in observations:
            assert service.localize(graph).cached is False
        stats = service.cache_stats()["agg_operator"]
    assert (stats["misses"], stats["hits"]) == (1, len(observations) - 1)


def test_different_top_k_is_not_a_false_cache_hit(graphs):
    with make_service() as service:
        assert len(service.localize(graphs[0], top_k=2).top) == 2
        wider = service.localize(graphs[0], top_k=4)
        assert wider.cached is False
        assert len(wider.top) == 4


def test_contract_violation_rejected_and_counted(graphs):
    with make_service() as service:
        with pytest.raises(GraphContractError) as exc_info:
            service.localize(make_bad_dtype_graph())
        assert any(v.rule_id.startswith("M3D1") for v in exc_info.value.violations)
        assert service.m_rejections.value == 1
        assert service.m_forward_passes.value == 0


def test_concurrent_callers_each_get_their_own_graphs_scores():
    """8 callers, distinct cold graphs: one forward per miss, and every
    served score is the single-graph forward's float for that graph."""
    cold = get_scenario("single_delay").generate(
        ScenarioSpec(n_graphs=32, n_gates=30, n_inputs=4, seed=11)
    )
    base = DelayFaultLocalizer(hidden=8, seed=2)
    results: dict[int, object] = {}
    barrier = threading.Barrier(8, timeout=30)

    def call(caller: int) -> None:
        barrier.wait()
        for i in range(caller, len(cold), 8):
            results[i] = service.localize(cold[i], top_k=cold[i].num_nodes)

    with make_service(model=base) as service:
        threads = [threading.Thread(target=call, args=(c,)) for c in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        misses = service.m_requests.value - service.m_cache_hits.value
        assert service.m_forward_passes.value == misses == len(cold)
    assert sorted(results) == list(range(len(cold)))
    for i, result in results.items():
        expected = base.node_scores(cold[i])
        assert result.graph_name == cold[i].name and not result.cached
        assert [entry["index"] for entry in result.top] == np.argsort(expected)[::-1].tolist()
        scores = np.full(cold[i].num_nodes, np.nan)
        for entry in result.top:
            scores[entry["index"]] = entry["score"]
        assert np.array_equal(scores, expected)


class OverlongScoresModel(ChaosModelWrapper):
    """Returns one score more than the graph has nodes."""

    def node_scores(self, graph):
        return np.zeros(graph.num_nodes + 1)


def test_scores_no_result_fits_fail_the_request_instead_of_stranding_it(graphs):
    model = OverlongScoresModel(DelayFaultLocalizer(hidden=8, seed=2))
    with make_service(model=model, request_timeout_s=10.0) as service:
        started = time.monotonic()
        with pytest.raises(ValueError, match="scores for"):
            service.localize(graphs[0])
        assert time.monotonic() - started < 5.0, "the future waited out its deadline"
        assert service.m_errors.value == 1
        assert service.drain(1.0) == {"failed": 0}


class ConstantScoresModel(ChaosModelWrapper):
    """Scores every node the same: a ranking made only of ties."""

    def node_scores(self, graph):
        return np.zeros(graph.num_nodes)


def test_tied_scores_are_served_lowest_index_first(graphs):
    # the tie rule evaluation and the scenario floors score against
    with make_service(model=ConstantScoresModel(DelayFaultLocalizer(hidden=8, seed=2))) as service:
        result = service.localize(graphs[0], top_k=3)
    assert [entry["index"] for entry in result.top] == [0, 1, 2]


def test_clean_graph_warnings_surface_in_result():
    engine = default_engine(RuleConfig(max_fanout=2))
    with make_service(engine=engine) as service:
        result = service.localize(make_high_fanout_graph(n_sinks=4))
    assert any("M3D108" in w for w in result.warnings)


def test_close_is_idempotent_and_rejects_new_requests(graphs):
    service = make_service()
    service.localize(graphs[0])
    service.close()
    service.close()
    with pytest.raises(RuntimeError, match="closed"):
        service.localize(graphs[0])


def test_refusals_after_close_are_counted(graphs):
    service = make_service()
    service.localize(graphs[0])
    service.close()
    for graph in graphs[:2]:
        with pytest.raises(RuntimeError, match="closed"):
            service.localize(graph)
    assert service.m_requests.value == 3
    assert service.m_drain_rejections.value == 2


def test_localize_validates_top_k(graphs):
    with make_service() as service:
        with pytest.raises(ValueError, match="top_k"):
            service.localize(graphs[0], top_k=0)
