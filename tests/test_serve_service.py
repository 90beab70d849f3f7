"""LocalizationService: gating, micro-batching, caching, hot reload."""

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
from m3d_fault_loc.serve.registry import ModelRegistry
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


def test_requires_exactly_one_model_source():
    with pytest.raises(ValueError, match="exactly one"):
        LocalizationService()
    with pytest.raises(ValueError, match="exactly one"):
        LocalizationService(
            model=DelayFaultLocalizer(hidden=4), registry=ModelRegistry("unused")
        )


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


class GatedFirstPassModel(ChaosModelWrapper):
    """Holds the first forward pass until ``release`` is set; records sizes."""

    def __init__(self, base: DelayFaultLocalizer):
        super().__init__(base)
        self.entered = threading.Event()
        self.release = threading.Event()
        self.batch_sizes: list[int] = []

    def node_scores_batch(self, graphs):
        self.batch_sizes.append(len(graphs))
        if self._next_call() == 1:
            self.entered.set()
            assert self.release.wait(30), "test never released the gated forward pass"
        return self._base.node_scores_batch(graphs)


def test_concurrent_requests_are_micro_batched(graphs):
    base = DelayFaultLocalizer(hidden=8, seed=2)
    model = GatedFirstPassModel(base)
    service = make_service(model=model, max_batch=8)
    results: dict[int, object] = {}

    def call(i: int) -> None:
        results[i] = service.localize(graphs[i])

    with service:
        first = threading.Thread(target=call, args=(0,))
        first.start()
        assert model.entered.wait(30)
        # The worker is held inside the first forward pass; the next misses
        # pile up on its queue and must all ride the following pass.
        rest = [threading.Thread(target=call, args=(i,)) for i in range(1, 6)]
        for t in rest:
            t.start()
        deadline = time.monotonic() + 30
        while service.queue_depth() < len(rest):
            assert time.monotonic() < deadline, "misses never queued behind the held pass"
            time.sleep(0.001)
        model.release.set()
        for t in [first, *rest]:
            t.join()
    assert sorted(results) == list(range(6))
    assert model.batch_sizes == [1, 5]
    assert service.m_forward_passes.value == 2
    assert service.m_batch_size.count == 2
    assert service.m_graphs.value == 6
    for i, result in results.items():
        expected = base.node_scores_batch([graphs[i]])[0]
        order = np.argsort(expected)[::-1][: len(result.top)]
        assert [entry["index"] for entry in result.top] == order.tolist()
        assert [entry["score"] for entry in result.top] == expected[order].tolist()


def test_lone_miss_never_blocks_in_collect_batch(monkeypatch):
    service = make_service(max_batch=4)
    real_get = service._queue.get

    def non_blocking_get(block=True, timeout=None):
        assert not block, "_collect_batch waited for a partner"
        return real_get(block, timeout)

    monkeypatch.setattr(service._queue, "get", non_blocking_get)
    lone, *queued = (object() for _ in range(6))
    assert service._collect_batch(lone) == [lone]
    for item in queued:
        service._queue.put(item)
    # Whatever is already queued rides along, capped at max_batch.
    assert service._collect_batch(lone) == [lone, *queued[:3]]
    assert service._collect_batch(lone) == [lone, queued[3], queued[4]]
    service.close()


def test_clean_graph_warnings_surface_in_result():
    engine = default_engine(RuleConfig(max_fanout=2))
    with make_service(engine=engine) as service:
        result = service.localize(make_high_fanout_graph(n_sinks=4))
    assert any("M3D108" in w for w in result.warnings)


def test_hot_reload_on_registry_activation(tmp_path, graphs):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(DelayFaultLocalizer(hidden=8, seed=0))
    with make_service(model=None, registry=registry) as service:
        before = service.localize(graphs[0])
        assert before.model_version == "v0001"

        registry.publish(DelayFaultLocalizer(hidden=8, seed=99))
        after = service.localize(graphs[0])
        assert after.model_version == "v0002"
        assert after.cached is False  # cache cannot serve the old model's answer
        assert service.m_reloads.value == 1
        assert service.describe_model()["version"] == "v0002"


def test_close_is_idempotent_and_rejects_new_requests(graphs):
    service = make_service()
    service.localize(graphs[0])
    service.close()
    service.close()
    with pytest.raises(RuntimeError, match="closed"):
        service.localize(graphs[0])


def test_localize_validates_top_k(graphs):
    with make_service() as service:
        with pytest.raises(ValueError, match="top_k"):
            service.localize(graphs[0], top_k=0)
