"""Contract checker: each violation fixture trips exactly its target rule,
and the vectorized structural rules match their loop oracles finding for
finding."""

from dataclasses import replace

import numpy as np
import pytest

from fixture_graphs import (
    VIOLATION_FIXTURES,
    make_clean_graph,
    make_cyclic_graph,
    make_high_fanout_graph,
)
from m3d_fault_loc.analysis.engine import RuleConfig, RuleEngine, default_engine
from m3d_fault_loc.analysis.graph_rules import (
    CyclicTimingGraphRule,
    DanglingNetRule,
    EdgeTierConsistencyRule,
    MivAdjacencyRule,
    SchemaConformanceRule,
)
from m3d_fault_loc.analysis.violations import Severity, has_errors
from m3d_fault_loc.data.synthetic import random_netlist
from m3d_fault_loc.faults.injector import make_fault_sample
from m3d_fault_loc.graph.schema import (
    EDGE_FEATURE_COLUMNS,
    EDGE_MIV,
    EDGE_NET,
    FEATURE_COLUMNS,
    INDEX_DTYPE,
    NODE_DTYPE,
    CircuitGraph,
)


@pytest.fixture(scope="module")
def engine():
    return default_engine()


def test_clean_graph_has_no_findings(engine):
    assert engine.run(make_clean_graph()) == []


@pytest.mark.parametrize(
    "factory,expected_rule",
    [(f, rid) for f, rid in VIOLATION_FIXTURES.items()],
    ids=[rid for rid in VIOLATION_FIXTURES.values()],
)
def test_violation_fixture_trips_its_rule(engine, factory, expected_rule):
    findings = engine.run(factory())
    fired = {v.rule_id for v in findings}
    assert expected_rule in fired
    assert has_errors(findings)


@pytest.mark.parametrize(
    "factory,expected_rule",
    [(f, rid) for f, rid in VIOLATION_FIXTURES.items()],
    ids=[rid for rid in VIOLATION_FIXTURES.values()],
)
def test_violation_survives_json_roundtrip(engine, tmp_path, factory, expected_rule):
    """Serialization must not launder defects (dtype included)."""
    graph = factory()
    path = graph.save(tmp_path / "graph.json")
    reloaded = type(graph).load(path)
    assert expected_rule in {v.rule_id for v in engine.run(reloaded)}


def test_fanout_bound_is_a_warning():
    engine = default_engine(RuleConfig(max_fanout=2))
    findings = engine.run(make_high_fanout_graph(n_sinks=4))
    assert {v.rule_id for v in findings} == {"M3D108"}
    assert all(v.severity == Severity.WARNING for v in findings)
    assert not has_errors(findings)
    # Same graph under the default bound is entirely clean.
    assert default_engine().run(make_high_fanout_graph(n_sinks=4)) == []


@pytest.mark.parametrize("num_tiers", ["2", 2.5, True, None])
def test_non_integer_num_tiers_is_a_finding_not_a_crash(engine, num_tiers):
    graph = make_clean_graph()
    graph.num_tiers = num_tiers
    findings = engine.run(graph)
    assert [v.message for v in findings] == [f"num_tiers must be an integer, got {num_tiers!r}"]
    assert findings[0].rule_id == "M3D103"


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("edge_type", "float", "edge_type must be int64, got float64"),
        ("fault_index", "3", "fault_index must be an integer, got '3'"),
        ("fault_index", True, "fault_index must be an integer, got True"),
    ],
)
def test_schema_flags_edge_type_dtype_and_non_integer_fault_index(engine, field, value, message):
    graph = make_clean_graph()
    if field == "edge_type":
        graph.edge_type = graph.edge_type.astype(np.float64)
    else:
        graph.fault_index = value
    findings = engine.run(graph)
    assert [(v.rule_id, v.message) for v in findings] == [("M3D106", message)]


@pytest.mark.parametrize(
    "field,edit",
    [
        ("edge_type", lambda a: a[:-1]),
        ("is_po", lambda a: a[:-1]),
        ("is_pi", lambda a: a.astype(np.int64)),
        ("tier", lambda a: np.where(a == 0, np.nan, a.astype(np.float64))),
        ("tier", lambda a: a.astype(np.float64)),
        ("edge_index", lambda a: a.astype(np.float64)),
        ("edge_index", lambda a: a[:1]),
        ("edge_index", lambda a: a.astype(np.int32)),
        ("edge_type", lambda a: a.astype(np.int8)),
        ("tier", lambda a: a.astype(np.uint64)),
        ("tier", lambda a: a.astype(np.int8)),
    ],
)
def test_structural_rules_skip_malformed_arrays_for_m3d106(engine, field, edit):
    graph = make_clean_graph()
    setattr(graph, field, edit(getattr(graph, field)))
    findings = engine.run(graph)
    assert findings, "the malformation must be reported"
    assert {v.rule_id for v in findings} == {"M3D106"}


def test_cycle_through_non_string_node_names_is_reported():
    graph = make_cyclic_graph()
    graph.node_names = list(range(graph.num_nodes))
    findings = CyclicTimingGraphRule().check(graph, RuleConfig())
    assert [v.message for v in findings] == ["combinational cycle through 2 node(s): 2, 3"]


def test_engine_rejects_duplicate_rule_ids(engine):
    duplicate = type(engine.rules[0])()
    with pytest.raises(ValueError, match="duplicate rule id"):
        RuleEngine(rules=[type(engine.rules[0])(), duplicate])


def test_rule_catalog_is_sorted_and_documented(engine):
    ids = [r.id for r in engine.rules]
    assert ids == sorted(ids)
    for rule in engine.rules:
        assert rule.description
        assert rule.id.startswith("M3D1")


# -- loop oracles for the vectorized structural rules -----------------------
#
# These are the original per-node / per-edge loop bodies of M3D101, M3D102,
# M3D104 and M3D105. The rules now run as numpy over the edge arrays; the
# oracles pin them to the exact findings (rule id, severity, message,
# location, context and order) the loops produced. The corpus below is
# schema-conformant in shape and dtype, so the rules' input guards always
# admit it and the oracles need none.


def oracle_m3d101(rule, graph):
    n = graph.num_nodes
    indeg = graph.in_degrees().copy()
    fanouts: list[list[int]] = [[] for _ in range(n)]
    for u, v in graph.edge_index.T:
        fanouts[int(u)].append(int(v))
    stack = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while stack:
        u = stack.pop()
        seen += 1
        for v in fanouts[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    if seen == n:
        return []
    cyclic = [graph.node_names[i] for i in range(n) if indeg[i] > 0]
    return [
        rule.violation(
            f"combinational cycle through {len(cyclic)} node(s): {', '.join(cyclic[:5])}",
            location=f"graph {graph.name}",
            nodes=cyclic[:16],
        )
    ]


def oracle_m3d102(rule, graph):
    findings = []
    indeg = graph.in_degrees()
    outdeg = graph.out_degrees()
    for i in range(graph.num_nodes):
        name = graph.node_names[i]
        if indeg[i] == 0 and not graph.is_pi[i]:
            findings.append(
                rule.violation("undriven net: node has no fanin and is not a primary input",
                               location=f"node {name}")
            )
        if outdeg[i] == 0 and not graph.is_po[i]:
            findings.append(
                rule.violation("floating net: node has no fanout and is not a primary output",
                               location=f"node {name}")
            )
    return findings


def oracle_m3d104(rule, graph):
    findings = []
    for e in range(graph.num_edges):
        if int(graph.edge_type[e]) != EDGE_MIV:
            continue
        u, v = int(graph.edge_index[0, e]), int(graph.edge_index[1, e])
        span = abs(int(graph.tier[u]) - int(graph.tier[v]))
        if span != 1:
            findings.append(
                rule.violation(
                    f"MIV edge spans {span} tier boundaries (must be exactly 1)",
                    location=f"edge {graph.node_names[u]}->{graph.node_names[v]}",
                    span=span,
                )
            )
    return findings


def oracle_m3d105(rule, graph):
    findings = []
    for e in range(graph.num_edges):
        et = int(graph.edge_type[e]) if e < len(graph.edge_type) else EDGE_NET
        u, v = int(graph.edge_index[0, e]), int(graph.edge_index[1, e])
        loc = f"edge {graph.node_names[u]}->{graph.node_names[v]}"
        if et not in (EDGE_NET, EDGE_MIV):
            findings.append(rule.violation(f"unknown edge type {et}", location=loc))
        elif et == EDGE_NET and int(graph.tier[u]) != int(graph.tier[v]):
            findings.append(
                rule.violation(
                    "intra-tier edge connects different tiers "
                    f"({int(graph.tier[u])} -> {int(graph.tier[v])}); "
                    "tier-crossing edges must be typed as MIV",
                    location=loc,
                )
            )
    return findings


ORACLES = {
    CyclicTimingGraphRule: oracle_m3d101,
    DanglingNetRule: oracle_m3d102,
    MivAdjacencyRule: oracle_m3d104,
    EdgeTierConsistencyRule: oracle_m3d105,
}


def _rewire(graph, keep=None, src=(), dst=(), types=()):
    """Copy of ``graph`` keeping the edges in ``keep`` plus new (src, dst, type) edges."""
    keep = np.ones(graph.num_edges, dtype=bool) if keep is None else keep
    extra = np.asarray([src, dst], dtype=INDEX_DTYPE).reshape(2, -1)
    return replace(
        graph,
        edge_index=np.concatenate([graph.edge_index[:, keep], extra], axis=1),
        edge_type=np.concatenate(
            [graph.edge_type[keep], np.asarray(types, dtype=INDEX_DTYPE)]
        ),
        edge_attr=np.concatenate(
            [graph.edge_attr[keep], np.full((extra.shape[1], 1), 0.02, dtype=NODE_DTYPE)]
        ),
    )


def _retype(graph, edges, new_type):
    edge_type = graph.edge_type.copy()
    edge_type[edges] = new_type
    return replace(graph, edge_type=edge_type)


def _corruptions(graph, rng):
    """One corrupted copy of ``graph`` per structural defect family."""
    n, e = graph.num_nodes, graph.num_edges
    src, dst = graph.edge_index
    tier = graph.tier
    picks = rng.choice(e, size=min(3, e), replace=False)
    back = rng.integers(0, n, size=(2, 4))
    yield "back-edges", _rewire(
        graph, src=[*dst[picks], *back.max(axis=0)], dst=[*src[picks], *back.min(axis=0)],
        types=[EDGE_NET] * (len(picks) + 4),
    )
    loops = rng.choice(n, size=3, replace=False)
    yield "self-loops", _rewire(graph, src=loops, dst=loops, types=[EDGE_NET] * 3)
    yield "multi-edges", _rewire(
        graph, src=src[picks], dst=dst[picks], types=graph.edge_type[picks]
    )
    same_tier = np.flatnonzero(tier[src] == tier[dst])
    yield "miv-span-0", _retype(graph, rng.choice(same_tier, size=3, replace=False), EDGE_MIV)
    low, high = np.flatnonzero(tier == 0), np.flatnonzero(tier == tier.max())
    yield "miv-span-max", _rewire(
        graph, src=rng.choice(low, size=3), dst=rng.choice(high, size=3), types=[EDGE_MIV] * 3
    )
    cross = np.flatnonzero(tier[src] != tier[dst])
    yield "net-crosses-tiers", _retype(graph, rng.choice(cross, size=3, replace=False), EDGE_NET)
    yield "unknown-edge-types", _retype(graph, picks, [2, 7, -1][: len(picks)])
    inner = np.flatnonzero(~graph.is_pi & ~graph.is_po)
    victims = rng.choice(inner, size=2, replace=False)
    keep = ~np.isin(dst, victims[:1]) & ~np.isin(src, victims[1:])
    yield "undriven-and-floating", _rewire(graph, keep=keep)
    miv = np.flatnonzero(graph.edge_type == EDGE_MIV)[:4]
    extreme = tier.copy()
    info = np.iinfo(INDEX_DTYPE)
    extreme[src[miv]] = [info.max, info.min, info.max, info.min][: len(miv)]
    extreme[dst[miv]] = [info.min, info.max, info.max - 1, info.min + 1][: len(miv)]
    yield "extreme-tiers", replace(graph, tier=extreme)
    # Shuffled ids defeat M3D101's id-order fast path, cycles or not.
    yield "shuffled-ids", _relabel(graph, rng.permutation(n))
    yield "shuffled-back-edges", _relabel(
        _rewire(graph, src=dst[picks], dst=src[picks], types=[EDGE_NET] * len(picks)),
        rng.permutation(n),
    )


def _relabel(graph, perm):
    """Copy of ``graph`` with node ``i`` renumbered ``perm[i]``."""
    inv = np.argsort(perm)
    return replace(
        graph,
        node_names=[graph.node_names[i] for i in inv],
        x=graph.x[inv],
        tier=graph.tier[inv],
        is_pi=graph.is_pi[inv],
        is_po=graph.is_po[inv],
        edge_index=perm[graph.edge_index],
    )


def make_chain_graph(n, reverse=False, close_cycle=False):
    """``n``-node single-tier NET chain, one node per topological level.

    ``reverse`` numbers it sink-first (every edge runs high -> low id);
    ``close_cycle`` adds an edge from the last node back to the middle one.
    """
    ids = np.arange(n, dtype=INDEX_DTYPE)
    if reverse:
        ids = ids[::-1].copy()
    edges = [ids[:-1], ids[1:]]
    if close_cycle:
        edges = [np.append(edges[0], ids[-1]), np.append(edges[1], ids[n // 2])]
    edge_index = np.stack(edges)
    e = edge_index.shape[1]
    return CircuitGraph(
        name=f"chain-{n}",
        num_tiers=1,
        node_names=[f"n{i}" for i in range(n)],
        x=np.zeros((n, len(FEATURE_COLUMNS)), dtype=NODE_DTYPE),
        tier=np.zeros(n, dtype=INDEX_DTYPE),
        is_pi=np.arange(n) == ids[0],
        is_po=np.arange(n) == ids[-1],
        edge_index=edge_index,
        edge_type=np.full(e, EDGE_NET, dtype=INDEX_DTYPE),
        edge_attr=np.full((e, len(EDGE_FEATURE_COLUMNS)), 0.02, dtype=NODE_DTYPE),
    )


def _oracle_corpus():
    corpus = [("clean", make_clean_graph()), ("high-fanout", make_high_fanout_graph())]
    corpus += [(f"fixture-{rid}", factory()) for factory, rid in VIOLATION_FIXTURES.items()]
    rng = np.random.default_rng(19)
    for n_gates in (30, 120, 480):
        for num_tiers in (2, 3):
            netlist = random_netlist(
                rng, n_gates=n_gates, n_inputs=max(3, n_gates // 10), num_tiers=num_tiers,
                name="synthetic-0",
            )
            graph = make_fault_sample(netlist, rng)
            corpus.append((f"{n_gates}g-{num_tiers}t-clean", graph))
            for label, corrupted in _corruptions(graph, rng):
                corpus.append((f"{n_gates}g-{num_tiers}t-{label}", corrupted))
    # Deep graphs: 20k levels, numbered with and against topological order.
    for reverse in (False, True):
        for close_cycle in (False, True):
            label = f"chain-20k{'-reversed' * reverse}{'-cycle' * close_cycle}"
            corpus.append((label, make_chain_graph(20_000, reverse, close_cycle)))
    return corpus


ORACLE_CORPUS = _oracle_corpus()


def _as_tuples(findings):
    # Violation equality ignores ``context``; the oracle parity must not.
    return [(v.rule_id, v.severity, v.message, v.location, v.context) for v in findings]


@pytest.mark.parametrize("rule_cls", list(ORACLES), ids=lambda cls: cls.id)
@pytest.mark.parametrize("label,graph", ORACLE_CORPUS, ids=[c[0] for c in ORACLE_CORPUS])
def test_vectorized_rule_matches_its_loop_oracle(rule_cls, label, graph):
    # Only the arrays the structural rules read must conform (the M3D106
    # fixture's defect is its float64 node features).
    schema = SchemaConformanceRule().check(graph, RuleConfig())
    assert [v for v in schema if not v.message.startswith("node features")] == []
    rule = rule_cls()
    assert _as_tuples(rule.check(graph, RuleConfig())) == _as_tuples(
        ORACLES[rule_cls](rule, graph)
    )


def test_oracle_corpus_trips_every_structural_rule():
    fired = {
        rule_cls.id: sum(bool(oracle(rule_cls(), g)) for _, g in ORACLE_CORPUS)
        for rule_cls, oracle in ORACLES.items()
    }
    assert all(count >= 6 for count in fired.values()), fired
