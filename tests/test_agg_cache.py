"""Aggregation-operator cache: exactness, collision safety, memory bounds.

The serving stack's exact batched-vs-single parity promise survives the
cache only if a cached operator is byte-identical to a fresh build, and the
segment-offset stack is byte-identical to ``scipy.sparse.block_diag``. Both
are asserted here at the array level, then end-to-end through the model.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from m3d_fault_loc.data.synthetic import synthesize_fault_dataset
from m3d_fault_loc.model.aggregate import (
    AggregationOperatorCache,
    build_in_neighbor_mean,
    operator_nbytes,
    stack_block_diagonal,
    topology_digest,
)
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.serve.cache import graph_digest


@pytest.fixture(scope="module")
def graphs():
    rng = np.random.default_rng(11)
    return synthesize_fault_dataset(rng, n_graphs=50, n_gates=20, n_inputs=4)


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


def test_stack_block_diagonal_matches_scipy_exactly(graphs):
    ops = [build_in_neighbor_mean(g) for g in graphs[:7]]
    stacked = stack_block_diagonal(ops)
    reference = sp.block_diag(ops, format="csr")
    assert _same_csr(stacked, reference)


def test_stack_block_diagonal_handles_edgeless_blocks():
    # an edgeless graph yields an all-zero operator block
    empty = sp.csr_matrix((3, 3))
    dense = build_in_neighbor_mean_from_random(seed=4)
    stacked = stack_block_diagonal([empty, dense, empty])
    reference = sp.block_diag([empty, dense, empty], format="csr")
    assert _same_csr(stacked, reference)


def build_in_neighbor_mean_from_random(seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    graph = synthesize_fault_dataset(rng, n_graphs=1, n_gates=10, n_inputs=3)[0]
    return build_in_neighbor_mean(graph)


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


def test_dtype_partitions_the_key_space(graphs):
    cache = AggregationOperatorCache()
    graph = graphs[0]
    cache.get_or_build(graph)
    cache.get_or_build(graph, dtype=np.float32)
    assert len(cache) == 2  # one topology, one entry per dtype, no cross-dtype hits
    assert cache.get_or_build(graph).dtype == np.float64
    assert cache.get_or_build(graph, dtype=np.float32).dtype == np.float32
    assert cache.stats()["hits"] == 2


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
