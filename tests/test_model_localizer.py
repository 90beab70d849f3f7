"""Localizer model: gradients, learning, persistence, determinism."""

import numpy as np
import pytest

from m3d_fault_loc.cli.train import localization_accuracy, train
from m3d_fault_loc.data.dataset import CircuitGraphDataset
from m3d_fault_loc.model.aggregate import build_in_neighbor_mean
from m3d_fault_loc.model.localizer import DelayFaultLocalizer, ModelArtifactError
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario
from m3d_fault_loc.testing.chaos import (
    MALFORMED_PARAM_KEYS,
    UNREADABLE_KINDS,
    UnreadableArtifact,
    malformed_model,
)


@pytest.fixture(scope="module")
def dataset():
    return CircuitGraphDataset.from_graphs(
        get_scenario("single_delay").generate(
            ScenarioSpec(n_graphs=80, n_gates=25, n_inputs=5, seed=0)
        )
    )


def test_in_neighbor_mean_rows(dataset):
    graph = dataset[0]
    m = build_in_neighbor_mean(graph)
    rows = np.asarray(m.sum(axis=1)).ravel()
    indeg = graph.in_degrees()
    assert np.allclose(rows[indeg > 0], 1.0)
    assert np.allclose(rows[indeg == 0], 0.0)


def test_gradients_match_finite_differences(dataset):
    graph = dataset[0]
    model = DelayFaultLocalizer(hidden=8, seed=3)
    loss, grads = model.loss_and_grads(graph)
    rng = np.random.default_rng(1)
    eps = 1e-6
    for key in ("W1n", "W2s", "w3", "b1"):
        param = model.params[key]
        idx = tuple(rng.integers(s) for s in param.shape)
        param[idx] += eps
        loss_plus, _ = model.loss_and_grads(graph)
        param[idx] -= 2 * eps
        loss_minus, _ = model.loss_and_grads(graph)
        param[idx] += eps
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert grads[key][idx] == pytest.approx(numeric, rel=1e-4, abs=1e-7), key


def test_training_beats_untrained_baseline(dataset):
    rng = np.random.default_rng(2)
    untrained = DelayFaultLocalizer(hidden=16, seed=0)
    baseline = localization_accuracy(untrained, dataset)
    model = train(dataset, rng, epochs=12, batch_size=8, hidden=16, seed=0, log=None)
    trained = localization_accuracy(model, dataset)
    chance = 1.0 / dataset[0].num_nodes
    assert trained >= 0.5
    assert trained > max(baseline, chance) + 0.2


def test_unlabeled_graph_rejected_for_training(dataset):
    graph = dataset[0]
    stripped = type(graph)(**{**graph.__dict__, "fault_index": None})
    with pytest.raises(ValueError, match="no fault label"):
        DelayFaultLocalizer(hidden=8).loss_and_grads(stripped)
    with pytest.raises(ValueError, match="no fault label"):
        DelayFaultLocalizer(hidden=8).example(stripped)


@pytest.mark.parametrize(
    ("requested", "written"),
    [
        ("model.npz", "model.npz"),  # canonical suffix kept as-is
        ("model", "model.npz"),  # suffix-less gets .npz appended
        ("model.bin", "model.bin.npz"),  # foreign suffix preserved, .npz appended
    ],
)
def test_save_load_roundtrip(tmp_path, dataset, requested, written):
    model = DelayFaultLocalizer(hidden=8, seed=5)
    path = model.save(tmp_path / requested)
    assert path == tmp_path / written
    assert path.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [written]
    reloaded = DelayFaultLocalizer.load(path)
    graph = dataset[0]
    assert np.allclose(model.node_scores(graph), reloaded.node_scores(graph))
    assert reloaded.hidden == 8


def test_save_load_carries_artifact_metadata(tmp_path):
    model = DelayFaultLocalizer(hidden=8, seed=5)
    path = model.save(tmp_path / "model.npz", metadata={"epochs": 12, "note": "unit"})
    reloaded = DelayFaultLocalizer.load(path)
    assert reloaded.artifact_meta == {"epochs": 12, "note": "unit"}


def test_same_seed_same_init():
    a = DelayFaultLocalizer(hidden=8, seed=9)
    b = DelayFaultLocalizer(hidden=8, seed=9)
    for key in a.params:
        assert np.array_equal(a.params[key], b.params[key])


def test_digest_keyed_scoring_hits_operator_cache(dataset):
    """Two observations of one netlist (different features) share the
    topology-keyed operator; scores still follow the features."""
    model = DelayFaultLocalizer(hidden=8, seed=4)
    graph = dataset[0]
    other = type(graph)(**{**graph.__dict__, "x": graph.x + np.float32(0.5)})
    first = model.node_scores(graph)
    assert model.agg_cache.stats()["hits"] == 0
    second = model.node_scores(other)
    assert model.agg_cache.stats()["hits"] == 1
    assert np.array_equal(second, DelayFaultLocalizer(hidden=8, seed=4).node_scores(other))
    assert not np.array_equal(first, second)


def test_forward_sees_in_place_param_updates(dataset):
    """The forward computes on params directly, so an optimizer step that
    mutates them in place is visible to the next call."""
    model = DelayFaultLocalizer(hidden=8, seed=7)
    graph = dataset[0]
    before = model.node_scores(graph)
    model.params["b3"] += 1.0
    assert np.allclose(model.node_scores(graph), before + 1.0)


# -- prepared training examples and the flat parameter vector ----------------


def _fixture_graphs():
    import fixture_graphs as fx

    graphs = [fx.make_clean_graph(), fx.make_clean_graph(3), fx.make_high_fanout_graph(5)]
    graphs += [factory() for factory in fx.VIOLATION_FIXTURES]
    # The high-fanout fixture carries no fault label; give it one.
    return [
        g if g.fault_index is not None else type(g)(**{**g.__dict__, "fault_index": 1})
        for g in graphs
    ]


@pytest.mark.parametrize("graph", _fixture_graphs(), ids=lambda g: g.name)
def test_example_gives_the_same_loss_and_grads_as_the_graph(graph):
    model = DelayFaultLocalizer(hidden=8, seed=2)
    loss, grads = model.loss_and_grads(graph)
    ex_loss, ex_grads = model.loss_and_grads(model.example(graph))
    assert np.array_equal(loss, ex_loss, equal_nan=True)
    assert grads.keys() == ex_grads.keys() == model.params.keys()
    for key in grads:
        assert np.array_equal(grads[key], ex_grads[key], equal_nan=True), key


# -- the fused layer math against the term-by-term formula -------------------

#: Fixed before the forward and backward were fused into one ``[h | m@h | 1] @
#: theta`` product per layer: the fused sums run in another order, so they
#: match the term-by-term formula to float64 rounding, not bit for bit.
FUSED_RTOL = 1e-12
FUSED_ATOL = 1e-14


def term_by_term_loss_and_grads(model, graph):
    """The localizer's forward and backward with every weight block as its own
    product, on a freshly built operator: the reference the fused layers are
    held to. Returns ``(logits, loss, grads)``."""
    p = model.params
    x = np.asarray(graph.x, dtype=np.float64)
    m = build_in_neighbor_mean(graph)
    mx = m @ x
    a1 = x @ p["W1s"] + mx @ p["W1n"] + p["b1"]
    h1 = np.maximum(a1, 0.0)
    mh1 = m @ h1
    a2 = h1 @ p["W2s"] + mh1 @ p["W2n"] + p["b2"]
    h2 = np.maximum(a2, 0.0)
    logits = (np.einsum("nh,ho->no", h2, p["w3"]) + p["b3"]).ravel()

    z = logits - logits.max()
    probs = np.exp(z) / np.exp(z).sum()
    loss = -float(np.log(max(probs[graph.fault_index], 1e-12)))
    dz = probs.copy()
    dz[graph.fault_index] -= 1.0
    dz = dz.reshape(-1, 1)
    grads = {"w3": h2.T @ dz, "b3": dz.sum(axis=0)}
    da2 = (dz @ p["w3"].T) * (a2 > 0)
    grads["W2s"] = h1.T @ da2
    grads["W2n"] = mh1.T @ da2
    grads["b2"] = da2.sum(axis=0)
    dh1 = da2 @ p["W2s"].T + m.T @ (da2 @ p["W2n"].T)
    da1 = dh1 * (a1 > 0)
    grads["W1s"] = x.T @ da1
    grads["W1n"] = mx.T @ da1
    grads["b1"] = da1.sum(axis=0)
    return logits, loss, grads


def _assert_matches_term_by_term(model, graph):
    logits, loss, grads = term_by_term_loss_and_grads(model, graph)
    np.testing.assert_allclose(
        model.node_scores(graph), logits, rtol=FUSED_RTOL, atol=FUSED_ATOL
    )
    got_loss, got_grads = model.loss_and_grads(graph)
    np.testing.assert_allclose(got_loss, loss, rtol=FUSED_RTOL, atol=FUSED_ATOL)
    assert got_grads.keys() == model.params.keys()
    for key, want in grads.items():
        assert got_grads[key].shape == model.params[key].shape, key
        np.testing.assert_allclose(
            got_grads[key], want, rtol=FUSED_RTOL, atol=FUSED_ATOL, err_msg=key
        )


@pytest.mark.parametrize("graph", _fixture_graphs(), ids=lambda g: g.name)
def test_fused_layers_match_the_term_by_term_formula_on_fixture_graphs(graph):
    _assert_matches_term_by_term(DelayFaultLocalizer(hidden=8, seed=2), graph)


@pytest.mark.parametrize("hidden", [8, 32])
def test_fused_layers_match_the_term_by_term_formula_on_synthetic_graphs(dataset, hidden):
    model = DelayFaultLocalizer(hidden=hidden, seed=11)
    for i in range(8):
        _assert_matches_term_by_term(model, dataset[i])


def test_example_holds_the_graph_features_and_the_cached_operator(dataset):
    model = DelayFaultLocalizer(hidden=8, seed=2)
    graph = dataset[0]
    ex = model.example(graph)
    assert ex.x is graph.x, "no float64 copy of the features is held"
    assert ex.m is model.agg_cache.get_or_build(graph)
    assert ex.fault_index == graph.fault_index


def _assert_params_view_flat(model):
    assert model.flat.ndim == 1
    assert model.flat.size == sum(p.size for p in model.params.values())
    for key, param in model.params.items():
        assert np.shares_memory(param, model.flat), key


def test_params_are_views_of_the_flat_vector(tmp_path):
    model = DelayFaultLocalizer(hidden=8, seed=3)
    _assert_params_view_flat(model)
    model.flat += 1.0
    assert np.all(model.params["b1"] == 1.0)
    reloaded = DelayFaultLocalizer.load(model.save(tmp_path / "m.npz"))
    _assert_params_view_flat(reloaded)
    assert np.array_equal(reloaded.flat, model.flat)
    assert reloaded.fingerprint() == model.fingerprint()


def test_fingerprint_names_the_weights_and_nothing_else():
    model = DelayFaultLocalizer(hidden=8, seed=3)
    assert DelayFaultLocalizer(hidden=8, seed=3).fingerprint() == model.fingerprint()
    assert DelayFaultLocalizer(hidden=8, seed=4).fingerprint() != model.fingerprint()
    before = model.fingerprint()
    model.params["b1"][0] += 1e-6
    assert model.fingerprint() != before


# -- load() refuses malformed artifacts --------------------------------------


@pytest.mark.parametrize("kind", MALFORMED_PARAM_KEYS)
def test_load_rejects_malformed_artifact_naming_the_key(tmp_path, kind):
    path = malformed_model(kind).save(tmp_path / "bad.npz")
    with pytest.raises(ValueError, match=f"'{MALFORMED_PARAM_KEYS[kind]}'"):
        DelayFaultLocalizer.load(path)


@pytest.mark.parametrize("dims", [{"__in_dim": np.asarray(2.5)}, {"__hidden": np.asarray(0)}])
def test_load_rejects_bad_dimensions(tmp_path, dims):
    model = DelayFaultLocalizer(hidden=8, seed=0)
    payload = {"__in_dim": np.asarray(model.in_dim), "__hidden": np.asarray(8), **model.params}
    payload.update(dims)
    path = tmp_path / "bad.npz"
    np.savez(path, **payload)
    (key,) = dims
    with pytest.raises(ValueError, match=key):
        DelayFaultLocalizer.load(path)


@pytest.mark.parametrize("kind", UNREADABLE_KINDS)
def test_load_rejects_a_file_that_is_not_an_npz(tmp_path, kind):
    path = UnreadableArtifact(kind).save(tmp_path / "bad.npz")
    with pytest.raises(ModelArtifactError, match="not a readable .npz model artifact"):
        DelayFaultLocalizer.load(path)


def test_load_rejects_a_directory(tmp_path):
    path = tmp_path / "model.npz"
    path.mkdir()
    with pytest.raises(ModelArtifactError, match="not a readable .npz model artifact"):
        DelayFaultLocalizer.load(path)


@pytest.mark.parametrize("payload", ["empty", "npy"])
def test_load_rejects_an_empty_file_and_a_bare_npy(tmp_path, payload):
    path = tmp_path / "bad.npz"
    if payload == "empty":
        path.write_bytes(b"")
    else:
        with path.open("wb") as fh:
            np.save(fh, np.zeros(3))
    with pytest.raises(ModelArtifactError, match="not a readable .npz model artifact"):
        DelayFaultLocalizer.load(path)
