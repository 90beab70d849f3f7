"""GraphSAGE-style delay-fault localizer (pure numpy).

Two SAGE layers aggregate over *in-neighbors* (upstream timing cone): a
fault origin is a node whose own slack degraded while its upstream cone is
clean, which is exactly a 1–2 hop pattern. A linear head scores every node
and a per-graph softmax turns scores into a localization distribution.

The environment this repo targets does not ship torch, so forward *and*
backward passes are written out explicitly over scipy sparse aggregation
matrices; the layer structure mirrors the NetConv/MLP idiom used by timing
GNNs so a torch_geometric port stays mechanical.

A forward scores one graph (:meth:`DelayFaultLocalizer.node_scores`): the
paper diagnoses one failing die at a time, and a block-diagonal stack of
graphs measured slower per graph once it no longer fit in L1.

Each SAGE layer is one linear map of its concatenated input, as in
standard SAGE and NetConv (``cat([h, m @ h])`` into one ``Linear``). With
``d`` the layer's input width and ``h`` the hidden width, the flat parameter
vector stores ``W1s, W1n, b1 | W2s, W2n, b2 | w3, b3`` back to back, so
each layer's weights are one ``(2d + 1, h)`` view ``theta = [Ws; Wn; b]``
and the layer is ``a = [h_in | m @ h_in | 1] @ theta``: one GEMM applies
the self weights, the neighbour weights and the bias. The backward writes
``z.T @ da``, the whole layer's weight gradient, straight into the matching
slice of a flat gradient buffer. The head is the ``(h + 1, 1)`` view
``[w3; b3]``. Past a few hundred rows the forward product runs in row blocks
so BLAS keeps it on one thread (:func:`_single_thread_matmul`); each row is
the same floats either way.

Forward and backward allocate no ``(N, h)`` arrays. Every intermediate
(the float64 features, both layer inputs, pre-activations, activations,
neighbour blocks, masks and backward deltas) lives in one per-thread
:class:`_Workspace`, written with ``out=``; only the ``(N,)`` logits are
fresh, because :meth:`DelayFaultLocalizer.node_scores` hands them out.
Aggregation is :func:`~m3d_fault_loc.model.aggregate.aggregate` and its
transpose twin, scipy's own CSR kernel called into the workspace, so the
floats are those of ``m @ h`` and ``m.T @ h``. A fresh temporary over
glibc's 128 KiB mmap threshold costs minor page faults on every forward,
and on a 129-node graph scipy's dispatch around the kernel cost about as
much as the kernel.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import zipfile
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np
import scipy.sparse as sp
from numpy.lib.npyio import NpzFile

from m3d_fault_loc.graph.schema import FEATURE_COLUMNS, CircuitGraph
from m3d_fault_loc.model.aggregate import (
    AggregationOperatorCache,
    aggregate,
    aggregate_transpose,
)
from m3d_fault_loc.obs.profile import phase


class ModelArtifactError(ValueError):
    """A model artifact that :meth:`DelayFaultLocalizer.load` refuses."""


class TrainingExample(NamedTuple):
    """One labelled graph with its topology work done once per training run.

    ``x`` is the graph's own feature array (no float64 copy is held) and
    ``m`` the cached aggregation operator; the backward applies its
    transpose straight from ``m``'s arrays.
    """

    x: np.ndarray
    m: sp.csr_matrix
    fault_index: int


class _Workspace:
    """One thread's forward and backward arrays for graphs of up to
    :attr:`capacity` nodes, one per annotation below. Each is the first
    ``n`` rows of a C-contiguous array, so each is itself C-contiguous (what
    the aggregation kernel and ``out=`` GEMMs need); :meth:`cut` re-slices
    them for another ``n``. The layer inputs' bias columns are set to 1 once.
    """

    x: np.ndarray  # the features as float64
    mx: np.ndarray
    z1: np.ndarray  # [x | m @ x | 1]
    a1: np.ndarray
    h1: np.ndarray
    mh1: np.ndarray
    z2: np.ndarray  # [h1 | m @ h1 | 1]
    a2: np.ndarray
    h2: np.ndarray
    da2: np.ndarray
    dz2: np.ndarray
    dz2_nb: np.ndarray  # the neighbour half of dz2, contiguous for the kernel
    da1: np.ndarray
    mask1: np.ndarray
    mask2: np.ndarray

    def __init__(self, capacity: int, d: int, h: int):
        self.capacity = capacity
        width = {"x": d, "mx": d, "z1": 2 * d + 1, "z2": 2 * h + 1, "dz2": 2 * h}
        self._full = {
            name: np.empty(
                (capacity, width.get(name, h)), dtype=bool if name.startswith("mask") else float
            )
            for name in _Workspace.__annotations__
        }
        self._full["z1"][:, -1] = self._full["z2"][:, -1] = 1.0
        self.cut(capacity)

    def cut(self, n: int) -> None:
        self.n = n
        for name, full in self._full.items():
            setattr(self, name, full[:n])


class DelayFaultLocalizer:
    """Two-layer mean-aggregator GraphSAGE with a per-graph softmax head.

    Every parameter lives in one flat float64 vector, :attr:`flat`;
    :attr:`params` maps each name to a reshaped view of it, so an in-place
    update of either is seen by both.
    """

    def __init__(
        self,
        in_dim: int | None = None,
        hidden: int = 32,
        seed: int = 0,
        agg_cache: AggregationOperatorCache | None = None,
    ):
        self.in_dim = in_dim if in_dim is not None else len(FEATURE_COLUMNS)
        self.hidden = hidden
        rng = np.random.default_rng(seed)

        def glorot(fan_in: int, fan_out: int) -> np.ndarray:
            scale = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-scale, scale, size=(fan_in, fan_out))

        #: Free-form artifact metadata carried alongside the weights on
        #: save/load (training config, provenance); never touches the math.
        self.artifact_meta: dict[str, Any] = {}

        h = hidden
        #: Parameter name -> shape, in :attr:`flat` order.
        self.shapes: dict[str, tuple[int, ...]] = {
            "W1s": (self.in_dim, h),
            "W1n": (self.in_dim, h),
            "b1": (h,),
            "W2s": (h, h),
            "W2n": (h, h),
            "b2": (h,),
            "w3": (h, 1),
            "b3": (1,),
        }
        self.flat = np.zeros(sum(math.prod(shape) for shape in self.shapes.values()))
        self.params: dict[str, np.ndarray] = self.views(self.flat)
        # Weights are drawn in name order; biases start at zero.
        for key, shape in self.shapes.items():
            if len(shape) == 2:
                self.params[key][...] = glorot(*shape)

        self._theta = self._layer_views(self.flat)
        # Per-thread forward/backward arrays (see _workspace).
        self._buffers = threading.local()
        # (buffer, layer views, per-key views) of the last gradient buffer
        # loss_and_grads wrote: train() passes the same one for every graph.
        self._grad_views: tuple[Any, ...] | None = None

        #: Per-graph CSR operator cache shared by every forward entry point,
        #: keyed by topology: every observation of a warm netlist skips the
        #: operator rebuild entirely.
        self.agg_cache = agg_cache if agg_cache is not None else AggregationOperatorCache()

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Reshaped views of a vector laid out like :attr:`flat`, keyed like
        :attr:`params` (used for the flat gradient buffer too)."""
        out: dict[str, np.ndarray] = {}
        start = 0
        for key, shape in self.shapes.items():
            size = math.prod(shape)
            out[key] = flat[start : start + size].reshape(shape)
            start += size
        return out

    def _layer_views(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-layer views of a vector laid out like :attr:`flat`: the first
        and second SAGE layers' ``theta`` (``(2d + 1, h)`` and ``(2h + 1, h)``)
        and the ``(h + 1, 1)`` head."""
        d, h = self.in_dim, self.hidden
        end1 = (2 * d + 1) * h
        end2 = end1 + (2 * h + 1) * h
        return (
            flat[:end1].reshape(2 * d + 1, h),
            flat[end1:end2].reshape(2 * h + 1, h),
            flat[end2:].reshape(h + 1, 1),
        )

    # -- forward ----------------------------------------------------------

    def node_scores(self, graph: CircuitGraph) -> np.ndarray:
        """Raw per-node localization logits, shape (N,)."""
        logits, _ = self._forward_arrays(graph.x, self.agg_cache.get_or_build(graph))
        return logits

    def _workspace(self, n: int) -> _Workspace:
        """This thread's workspace cut to ``n`` rows; valid until the
        thread's next forward.

        Reused rather than allocated per forward: a 480-gate graph's ``z2``
        (492 x 65 float64, 250 KiB) is over glibc's 128 KiB mmap threshold, and a fresh one
        cost ~120 minor page faults per forward, doubling its time. A
        workspace is kept while it has ``n`` to ``2n`` rows, so one huge
        graph does not pin its size for the life of the thread.
        """
        ws = getattr(self._buffers, "ws", None)
        if ws is None or not n <= ws.capacity <= 2 * n:
            ws = self._buffers.ws = _Workspace(n, self.in_dim, self.hidden)
        elif ws.n != n:
            ws.cut(n)
        return ws

    def _forward_arrays(self, x: np.ndarray, m: sp.csr_matrix) -> tuple[np.ndarray, _Workspace]:
        """Logits for features ``x`` (any float dtype, read as float64) over
        operator ``m``, plus the workspace holding what the backward needs."""
        theta1, theta2, head = self._theta
        d, h = self.in_dim, self.hidden
        ws = self._workspace(x.shape[0])
        # Cast once here: handed float32, the kernel casts into a temporary.
        ws.x[...] = x
        ws.z1[:, :d] = ws.x
        ws.z1[:, d:-1] = aggregate(m, ws.x, ws.mx)
        _single_thread_matmul(ws.z1, theta1, ws.a1)
        np.maximum(ws.a1, 0.0, out=ws.h1)
        ws.z2[:, :h] = ws.h1
        ws.z2[:, h:-1] = aggregate(m, ws.h1, ws.mh1)
        _single_thread_matmul(ws.z2, theta2, ws.a2)
        np.maximum(ws.a2, 0.0, out=ws.h2)
        # The head is an (N, h) @ (h, 1) product; BLAS picks N-dependent gemv
        # strategies whose last-ulp rounding differs. einsum keeps a fixed
        # per-row accumulation order regardless of N, and the trained
        # parameters pinned by tests/test_train_oracle.py are its floats.
        logits = np.einsum("nh,ho->no", ws.h2, head[:-1])
        logits += head[-1]
        return logits.ravel(), ws

    # -- training ---------------------------------------------------------

    def example(self, graph: CircuitGraph) -> TrainingExample:
        """The per-graph topology work of :meth:`loss_and_grads`, done once."""
        if graph.fault_index is None:
            raise ValueError(f"graph {graph.name!r} has no fault label")
        return TrainingExample(graph.x, self.agg_cache.get_or_build(graph), graph.fault_index)

    def loss_and_grads(
        self, graph: CircuitGraph | TrainingExample, out: np.ndarray | None = None
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Cross-entropy of the per-graph softmax against the fault label.

        Takes a graph or its prepared :meth:`example` (the training loop
        builds each example once per run). Returns ``(loss, grads)`` with
        grads keyed like :attr:`params`: views of ``out``, a float64 vector
        laid out like :attr:`flat` that is overwritten, or of a fresh one.
        Calls with the same ``out`` return the same dict object.
        """
        ex = graph if isinstance(graph, TrainingExample) else self.example(graph)
        if out is None:
            out = np.empty_like(self.flat)
        # The phase() brackets are free when no profiler is active (shared
        # null context manager), so they live here unconditionally.
        with phase("forward"):
            logits, ws = self._forward_arrays(ex.x, ex.m)

        with phase("backward"):
            dz = logits - logits.max()
            np.exp(dz, out=dz)
            dz /= dz.sum()
            loss = -float(np.log(max(dz[ex.fault_index], 1e-12)))
            dz[ex.fault_index] -= 1.0

            _, theta2, head = self._theta
            if self._grad_views is None or self._grad_views[0] is not out:
                self._grad_views = (out, self._layer_views(out), self.views(out))
            _, (g1, g2, g_head), grads = self._grad_views
            h = self.hidden
            np.matmul(ws.h2.T, dz[:, None], out=g_head[:-1])
            g_head[-1] = dz.sum()
            da2 = np.multiply(dz[:, None], head[:-1].T, out=ws.da2)
            da2 *= np.greater(ws.a2, 0.0, out=ws.mask2)
            np.matmul(ws.z2.T, da2, out=g2)
            # Back through [h1 | m @ h1]: the self block directly, the
            # neighbour block through the operator's transpose.
            dz2 = np.matmul(da2, theta2[:-1].T, out=ws.dz2)
            ws.dz2_nb[...] = dz2[:, h:]
            da1 = aggregate_transpose(ex.m, ws.dz2_nb, ws.da1)
            da1 += dz2[:, :h]  # IEEE addition commutes: the floats of self + neighbour
            da1 *= np.greater(ws.a1, 0.0, out=ws.mask1)
            np.matmul(ws.z1.T, da1, out=g1)
        return loss, grads

    # -- persistence ------------------------------------------------------

    def save(self, path: str | Path, metadata: dict[str, Any] | None = None) -> Path:
        """Serialize weights (plus artifact metadata) to ``.npz``.

        ``np.savez`` appends ``.npz`` whenever the target name does not end
        with it; the path is normalized with the same ``endswith`` rule first
        so the returned path is always exactly the file written (e.g.
        ``model.bin`` → ``model.bin.npz``).
        """
        path = Path(path)
        if not path.name.endswith(".npz"):
            path = path.with_name(path.name + ".npz")
        meta = {**self.artifact_meta, **(metadata or {})}
        np.savez(
            path,
            __in_dim=np.asarray(self.in_dim),
            __hidden=np.asarray(self.hidden),
            __meta=np.asarray(json.dumps(meta)),
            **self.params,
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> DelayFaultLocalizer:
        """Read an artifact written by :meth:`save`.

        Every key is checked before it is copied into :attr:`flat`: it must
        be present, have exactly the shape ``__in_dim``/``__hidden`` imply,
        and hold finite floating-point values. Any failure raises
        :class:`ModelArtifactError` naming the key, so a malformed artifact
        is refused at load instead of broadcasting into the weights or
        failing every forward. A path ``np.load`` cannot read as an ``.npz``
        archive (truncated, not a zip, a bare ``.npy``, a directory) raises
        it too.
        """
        try:
            payload = np.load(path)
        except (zipfile.BadZipFile, ValueError, EOFError, IsADirectoryError) as exc:
            raise ModelArtifactError(
                f"model artifact {path}: not a readable .npz model artifact"
            ) from exc
        if not isinstance(payload, NpzFile):
            raise ModelArtifactError(f"model artifact {path}: not a readable .npz model artifact")
        with payload:
            model = cls(
                in_dim=_artifact_dim(payload, "__in_dim", path),
                hidden=_artifact_dim(payload, "__hidden", path),
            )
            for key, view in model.params.items():
                if key not in payload.files:
                    raise ModelArtifactError(f"model artifact {path}: missing parameter {key!r}")
                arr = payload[key]
                if arr.shape != view.shape:
                    raise ModelArtifactError(
                        f"model artifact {path}: parameter {key!r} has shape {arr.shape}, "
                        f"expected {view.shape}"
                    )
                if not np.issubdtype(arr.dtype, np.floating):
                    raise ModelArtifactError(
                        f"model artifact {path}: parameter {key!r} has dtype {arr.dtype}, "
                        "expected floating point"
                    )
                if not np.all(np.isfinite(arr)):
                    raise ModelArtifactError(
                        f"model artifact {path}: parameter {key!r} has non-finite values"
                    )
                view[...] = arr
            if "__meta" in payload.files:
                model.artifact_meta = json.loads(payload["__meta"].item())
        return model

    def fingerprint(self) -> str:
        """Stable content hash of the weights: the served model's identity
        on ``/model`` (``sha256``, and its first 12 hex digits as
        ``version``)."""
        digest = hashlib.sha256()
        for key in sorted(self.params):
            arr = np.ascontiguousarray(self.params[key])
            digest.update(key.encode())
            digest.update(arr.tobytes())
        return digest.hexdigest()


#: Largest M*N*K of one forward GEMM. OpenBLAS hands a product to a second
#: thread once M*N*K passes ~1e6 (measured: (480, 65) @ (65, 32) stays on one
#: thread, (492, 65) @ (65, 32) does not). A 480-gate graph's second layer is
#: (492, 65) @ (65, 32), and on a 2-core host serving requests the hand-off
#: took ~8 ms per forward instead of ~0.2 ms.
_GEMM_MNK_LIMIT = 500_000


def _single_thread_matmul(z: np.ndarray, theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[...] = z @ theta`` in row blocks small enough that BLAS keeps
    each on one thread. Each row's dot products are the same in any block,
    so the result is the same floats as one product."""
    rows = max(1, _GEMM_MNK_LIMIT // (z.shape[1] * theta.shape[1]))
    if len(z) <= rows:
        return np.matmul(z, theta, out=out)
    for start in range(0, len(z), rows):
        np.matmul(z[start : start + rows], theta, out=out[start : start + rows])
    return out


def _artifact_dim(payload: Any, key: str, path: str | Path) -> int:
    """A positive integer scalar dimension from a loaded artifact."""
    if key not in payload.files:
        raise ModelArtifactError(f"model artifact {path}: missing {key!r}")
    arr = payload[key]
    if arr.shape != () or not np.issubdtype(arr.dtype, np.integer) or int(arr) < 1:
        raise ModelArtifactError(
            f"model artifact {path}: {key!r} must be a positive integer scalar, got {arr!r}"
        )
    return int(arr)
