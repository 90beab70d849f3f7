"""Aggregation-operator cache: exactness, collision safety, memory bounds.

A served score must not depend on whether its operator came from the cache,
so a cached operator must be byte-identical to a fresh build. That is
asserted here at the array level, then end-to-end through the model against
:func:`fresh_operator_oracle_scores`, the uncached reference forward.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from fixture_graphs import make_clean_graph, make_high_fanout_graph

from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.model.aggregate import (
    AggregationOperatorCache,
    build_in_neighbor_mean,
    operator_nbytes,
    topology_digest,
)
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario
from m3d_fault_loc.serve.cache import graph_digest


@pytest.fixture(scope="module")
def graphs():
    return get_scenario("single_delay").generate(
        ScenarioSpec(n_graphs=50, n_gates=20, n_inputs=4, seed=11)
    )


def _same_csr(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.data, b.data)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.indptr, b.indptr)
    )


# -- exactness --------------------------------------------------------------


def test_cached_operator_is_byte_identical_to_fresh_build(graphs):
    cache = AggregationOperatorCache()
    for graph in graphs:
        cached = cache.get_or_build(graph)
        again = cache.get_or_build(graph)
        assert again is cached  # second call is a hit, not a rebuild
        assert _same_csr(cached, build_in_neighbor_mean(graph))
    assert cache.stats()["hits"] == len(graphs)
    assert cache.stats()["misses"] == len(graphs)


def test_model_scores_identical_with_and_without_cache(graphs):
    """Exact score parity between cached and freshly-built operators, across
    50 randomized graphs — the correctness gate for the whole optimization."""
    cached_model = DelayFaultLocalizer(hidden=16, seed=3)
    fresh_model = DelayFaultLocalizer(hidden=16, seed=3)
    for graph in graphs:
        cached_first = cached_model.node_scores(graph)
        fresh_model.agg_cache.clear()  # defeat the cache: rebuild every time
        fresh = fresh_model.node_scores(graph)
        assert np.array_equal(cached_first, fresh)
        assert np.array_equal(cached_model.node_scores(graph), fresh)  # warm hit


def fresh_operator_oracle_scores(model: DelayFaultLocalizer, graph: CircuitGraph) -> np.ndarray:
    """Reference forward with no cache and no workspace: a freshly built
    operator, then the fused forward written out from the named parameters:
    each SAGE layer is one product ``[h | m @ h | 1] @ [Ws; Wn; b]``."""
    x = graph.x.astype(np.float64)
    m = build_in_neighbor_mean(graph)
    p = model.params
    ones = np.ones((x.shape[0], 1))
    theta1 = np.vstack([p["W1s"], p["W1n"], p["b1"]])
    theta2 = np.vstack([p["W2s"], p["W2n"], p["b2"]])
    h1 = np.maximum(np.hstack([x, m @ x, ones]) @ theta1, 0.0)
    h2 = np.maximum(np.hstack([h1, m @ h1, ones]) @ theta2, 0.0)
    return (np.einsum("nh,ho->no", h2, p["w3"]) + p["b3"]).ravel()


def test_scores_match_fresh_operator_oracle_exactly(graphs):
    """The cached, workspace-backed forward computes the oracle's floats to
    the last ulp, on seeded graphs (repeats included, as a warm server sees
    them) and on the hand-built fixture graphs."""
    model = DelayFaultLocalizer(hidden=16, seed=3)
    seeded = [graphs[i % 4] for i in range(9)]
    fixtures = [make_clean_graph(), make_high_fanout_graph(n_sinks=4), make_clean_graph(3)]
    for graph in [*seeded, *fixtures]:
        assert np.array_equal(model.node_scores(graph), fresh_operator_oracle_scores(model, graph))


def test_row_blocked_forward_matches_fresh_operator_oracle_exactly():
    """Graphs past the forward's GEMM row block (240 rows at hidden 32) are
    scored block by block; the floats are still the oracle's single
    products, whichever graph size the thread's workspace was cut from."""
    big = get_scenario("single_delay").generate(
        ScenarioSpec(n_graphs=3, n_gates=300, n_inputs=6, seed=12)
    )
    assert all(g.num_nodes > 240 for g in big)
    model = DelayFaultLocalizer(hidden=32, seed=3)
    for graph in [*big, *reversed(big)]:
        assert np.array_equal(model.node_scores(graph), fresh_operator_oracle_scores(model, graph))


# -- collision safety -------------------------------------------------------


def test_topology_digest_ignores_features_and_labels(graphs):
    graph = graphs[0]
    relabeled = type(graph)(
        **{
            **graph.__dict__,
            "x": graph.x + np.float32(1.0),
            "fault_index": None,
            "name": "renamed",
        }
    )
    assert topology_digest(relabeled) == topology_digest(graph)
    assert graph_digest(relabeled) != graph_digest(graph)


def test_topology_digest_distinguishes_different_edges(graphs):
    graph = graphs[0]
    flipped = type(graph)(
        **{**graph.__dict__, "edge_index": graph.edge_index[::-1].copy()}
    )
    assert topology_digest(flipped) != topology_digest(graph)


def test_distinct_topologies_never_share_an_entry(graphs):
    cache = AggregationOperatorCache()
    seen: dict[str, int] = {}
    for graph in graphs:
        key = topology_digest(graph)
        op = cache.get_or_build(graph)
        assert _same_csr(op, build_in_neighbor_mean(graph))
        if key in seen:
            assert seen[key] == graph.num_nodes
        seen[key] = graph.num_nodes


# -- LRU eviction under the memory bound ------------------------------------


def test_lru_evicts_under_byte_bound(graphs):
    ops = [build_in_neighbor_mean(g) for g in graphs[:10]]
    budget = sum(operator_nbytes(op) for op in ops[:3])
    cache = AggregationOperatorCache(capacity_bytes=budget)
    for graph in graphs[:10]:
        cache.get_or_build(graph)
        assert cache.stats()["bytes"] <= budget
    stats = cache.stats()
    assert stats["evictions"] > 0
    assert 0 < stats["size"] < 10


def test_lru_evicts_oldest_first(graphs):
    ops = [build_in_neighbor_mean(g) for g in graphs[:3]]
    # fits any two of the three operators, but never all three
    budget = sum(operator_nbytes(op) for op in ops) - 1
    cache = AggregationOperatorCache(capacity_bytes=budget)
    cache.get_or_build(graphs[0])
    cache.get_or_build(graphs[1])
    cache.get_or_build(graphs[0])  # refresh 0 so 1 is now LRU
    cache.get_or_build(graphs[2])  # must evict 1, not 0
    hits_before = cache.stats()["hits"]
    cache.get_or_build(graphs[0])
    assert cache.stats()["hits"] == hits_before + 1


def test_operator_larger_than_budget_served_but_not_retained(graphs):
    cache = AggregationOperatorCache(capacity_bytes=1)
    op = cache.get_or_build(graphs[0])
    assert _same_csr(op, build_in_neighbor_mean(graphs[0]))
    assert len(cache) == 0
    assert cache.stats()["bytes"] == 0


def test_max_entries_bound_enforced(graphs):
    cache = AggregationOperatorCache(max_entries=4)
    for graph in graphs[:12]:
        cache.get_or_build(graph)
    assert len(cache) <= 4
    assert cache.stats()["evictions"] >= 8


def test_clear_resets_bytes(graphs):
    cache = AggregationOperatorCache()
    for graph in graphs[:5]:
        cache.get_or_build(graph)
    cache.clear()
    assert len(cache) == 0
    assert cache.stats()["bytes"] == 0


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError, match="capacity_bytes"):
        AggregationOperatorCache(capacity_bytes=0)
    with pytest.raises(ValueError, match="max_entries"):
        AggregationOperatorCache(max_entries=0)
