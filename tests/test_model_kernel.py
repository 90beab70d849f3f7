"""The localizer's direct CSR kernel path against scipy's own products.

``aggregate``/``aggregate_transpose`` call the kernel that ``m @ h`` and
``m.T @ h`` end in, and the localizer's forward and backward write into a
per-thread workspace instead of fresh arrays. Neither may move a float:
every check here is ``np.array_equal``, not a tolerance. The reference step
below is the scipy-product ``loss_and_grads`` the workspace replaced.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import fixture_graphs as fx
from m3d_fault_loc.model.aggregate import (
    aggregate,
    aggregate_transpose,
    build_in_neighbor_mean,
)
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _generate(n_graphs: int, n_gates: int, n_inputs: int, seed: int):
    return get_scenario("single_delay").generate(
        ScenarioSpec(n_graphs=n_graphs, n_gates=n_gates, n_inputs=n_inputs, seed=seed)
    )


def _int64(m: sp.csr_matrix) -> sp.csr_matrix:
    """``m`` with int64 index arrays (scipy downcasts small ones to int32)."""
    m = m.copy()
    m.indices = m.indices.astype(np.int64)
    m.indptr = m.indptr.astype(np.int64)
    return m


def _operators() -> dict[str, sp.csr_matrix]:
    graphs = _generate(2, 40, 6, seed=4)
    ops = {
        "int32_in_neighbor_mean": build_in_neighbor_mean(graphs[0]),
        "int64_in_neighbor_mean": _int64(build_in_neighbor_mean(graphs[1])),
        "edgeless": build_in_neighbor_mean(
            type(graphs[0])(
                **{**graphs[0].__dict__, "edge_index": np.zeros((2, 0), dtype=np.int64)}
            )
        ),
    }
    assert ops["int32_in_neighbor_mean"].indptr.dtype == np.int32
    assert ops["int64_in_neighbor_mean"].indptr.dtype == np.int64
    assert ops["edgeless"].nnz == 0
    return ops


OPERATORS = _operators()


def _inputs(rows: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(rows)
    wide = rng.standard_normal((rows, 65))
    return {
        "float64": rng.standard_normal((rows, 32)),
        "float32": rng.standard_normal((rows, 9)).astype(np.float32),
        "strided": wide[:, 32:64],  # a column block, as in [h | m @ h | 1]
        "one_column": rng.standard_normal((rows, 1)),
    }


@pytest.mark.parametrize("op_name", OPERATORS)
@pytest.mark.parametrize("x_name", ["float64", "float32", "strided", "one_column"])
def test_kernel_matches_scipy_products_exactly(op_name, x_name):
    m = OPERATORS[op_name]
    x = _inputs(m.shape[0])[x_name]
    out = np.full((m.shape[0], x.shape[1]), np.nan)  # the kernel must zero it
    assert aggregate(m, x, out) is out
    assert np.array_equal(out, m @ x)
    assert aggregate_transpose(m, x, out) is out
    assert np.array_equal(out, m.T @ x)


def test_kernel_refuses_what_it_would_write_past_or_lose():
    m = OPERATORS["int32_in_neighbor_mean"]
    n = m.shape[0]
    x = np.ones((n, 4))
    for bad_out in (np.empty((n - 1, 4)), np.empty((n, 3)), np.empty((n, 8))[:, :4]):
        with pytest.raises(ValueError, match="aggregate"):
            aggregate(m, x, bad_out)
    with pytest.raises(ValueError, match="aggregate"):
        aggregate(m, x, np.empty((n, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="aggregate"):
        aggregate_transpose(m, np.ones((n + 1, 4)), np.empty((n, 4)))


# -- one training step against the scipy-product reference ------------------

#: Largest M*N*K of one forward GEMM before it runs in row blocks (as the
#: localizer's forward does, to keep BLAS on one thread).
_GEMM_MNK_LIMIT = 500_000


def _row_blocked_matmul(z, theta):
    rows = max(1, _GEMM_MNK_LIMIT // (z.shape[1] * theta.shape[1]))
    if len(z) <= rows:
        return z @ theta
    out = np.empty((len(z), theta.shape[1]))
    for start in range(0, len(z), rows):
        np.matmul(z[start : start + rows], theta, out=out[start : start + rows])
    return out


def scipy_loss_and_grads(model, graph):
    """``loss_and_grads`` as it was written over scipy sparse products and
    fresh temporaries. Returns ``(loss, flat gradient)``."""
    theta1, theta2, head = model._layer_views(model.flat)
    d, h = model.in_dim, model.hidden
    m = build_in_neighbor_mean(graph)
    n = graph.num_nodes
    z1 = np.empty((n, 2 * d + 1))
    z2 = np.empty((n, 2 * h + 1))
    z1[:, -1] = z2[:, -1] = 1.0
    z1[:, :d] = graph.x
    z1[:, d:-1] = m @ z1[:, :d]
    a1 = _row_blocked_matmul(z1, theta1)
    h1 = np.maximum(a1, 0.0, out=z2[:, :h])
    z2[:, h:-1] = m @ h1
    a2 = _row_blocked_matmul(z2, theta2)
    h2 = np.maximum(a2, 0.0)
    logits = (np.einsum("nh,ho->no", h2, head[:-1]) + head[-1]).ravel()

    dz = logits - logits.max()
    np.exp(dz, out=dz)
    dz /= dz.sum()
    loss = -float(np.log(max(dz[graph.fault_index], 1e-12)))
    dz[graph.fault_index] -= 1.0

    grad = np.empty_like(model.flat)
    g1, g2, g_head = model._layer_views(grad)
    np.matmul(h2.T, dz[:, None], out=g_head[:-1])
    g_head[-1] = dz.sum()
    da2 = dz[:, None] * head[:-1].T
    da2 *= a2 > 0
    np.matmul(z2.T, da2, out=g2)
    dz2 = da2 @ theta2[:-1].T
    da1 = dz2[:, :h] + m.T @ dz2[:, h:]
    da1 *= a1 > 0
    np.matmul(z1.T, da1, out=g1)
    return loss, grad


def _step_graphs():
    graphs = [fx.make_clean_graph(), fx.make_clean_graph(3), fx.make_high_fanout_graph(5)]
    graphs += [factory() for factory in fx.VIOLATION_FIXTURES]
    graphs += _generate(1, 120, 9, seed=2) + _generate(1, 480, 12, seed=2)
    assert [g.num_nodes for g in graphs[-2:]] == [129, 492]
    # The high-fanout fixture carries no fault label; give it one.
    return [
        g if g.fault_index is not None else type(g)(**{**g.__dict__, "fault_index": 1})
        for g in graphs
    ]


@pytest.mark.parametrize("graph", _step_graphs(), ids=lambda g: f"{g.name}-{g.num_nodes}")
def test_step_matches_the_scipy_reference_exactly(graph):
    model = DelayFaultLocalizer(hidden=32, seed=4)
    want_loss, want_grad = scipy_loss_and_grads(model, graph)
    out = np.empty_like(model.flat)
    # Twice: the second call runs on the workspace the first one left.
    for _ in range(2):
        loss, grads = model.loss_and_grads(graph, out=out)
        assert np.array_equal(loss, want_loss, equal_nan=True)
        assert np.array_equal(out, want_grad, equal_nan=True)
        assert all(np.shares_memory(g, out) for g in grads.values())


# -- no page faults on a large serving forward --------------------------------

_FAULT_PROBE = """
import resource
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario

(graph,) = get_scenario("single_delay").generate(
    ScenarioSpec(n_graphs=1, n_gates=480, n_inputs=12, seed=3)
)
assert graph.num_nodes == 492
model = DelayFaultLocalizer(hidden=32, seed=0)
for _ in range(20):
    model.node_scores(graph)
before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
for _ in range(200):
    model.node_scores(graph)
print((resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before) / 200)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RUSAGE_THREAD is Linux-only")
def test_large_graph_forward_takes_no_page_faults():
    """A fresh temporary over glibc's 128 KiB mmap threshold is mapped and
    faulted in on every forward; a 480-gate graph's second-layer input
    ``z2`` (492 x 65 float64, 250 KiB) passes it. Run in a fresh interpreter
    so the count is this forward's alone, with the threshold pinned: left
    dynamic, glibc raises it after the first free of a block that size, so
    a single fresh temporary would come from the heap unseen."""
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC_DIR}{os.pathsep}{env.get('PYTHONPATH', '')}"
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    faults_per_forward = float(proc.stdout.strip())
    assert faults_per_forward < 1.0
