"""GraphSAGE-style delay-fault localizer (pure numpy).

Two SAGE layers aggregate over *in-neighbors* (upstream timing cone): a
fault origin is a node whose own slack degraded while its upstream cone is
clean, which is exactly a 1–2 hop pattern. A linear head scores every node
and a per-graph softmax turns scores into a localization distribution.

The environment this repo targets does not ship torch, so forward *and*
backward passes are written out explicitly over scipy sparse aggregation
matrices; the layer structure mirrors the NetConv/MLP idiom used by timing
GNNs so a torch_geometric port stays mechanical.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from m3d_fault_loc.graph.schema import FEATURE_COLUMNS, CircuitGraph
from m3d_fault_loc.model.aggregate import AggregationOperatorCache
from m3d_fault_loc.obs.profile import phase


class ModelArtifactError(ValueError):
    """A model artifact that :meth:`DelayFaultLocalizer.load` refuses."""


class TrainingExample(NamedTuple):
    """One labelled graph with its topology work done once per training run.

    ``x`` is the graph's own feature array (no float64 copy is held), ``m``
    the cached aggregation operator and ``mt`` its transpose — a CSC view
    over ``m``'s arrays, so it costs no array memory.
    """

    x: np.ndarray
    m: sp.csr_matrix
    mt: sp.csc_matrix
    fault_index: int


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
        self.flat = np.zeros(sum(int(np.prod(shape)) for shape in self.shapes.values()))
        self.params: dict[str, np.ndarray] = self.views(self.flat)
        # Weights are drawn in name order; biases start at zero.
        for key, shape in self.shapes.items():
            if len(shape) == 2:
                self.params[key][...] = glorot(*shape)

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
            size = int(np.prod(shape))
            out[key] = flat[start : start + size].reshape(shape)
            start += size
        return out

    # -- forward ----------------------------------------------------------

    def node_scores(self, graph: CircuitGraph) -> np.ndarray:
        """Raw per-node localization logits, shape (N,)."""
        logits, _ = self._forward(graph)
        return logits

    def predict(self, graph: CircuitGraph) -> int:
        """Index of the most likely fault-origin node."""
        return int(np.argmax(self.node_scores(graph)))

    def node_scores_batch(self, graphs: Sequence[CircuitGraph]) -> list[np.ndarray]:
        """Per-graph logit arrays from one stacked forward pass.

        Features are concatenated and the aggregation matrices placed on a
        block diagonal, so every row's dot products are the same sums in the
        same order as the single-graph path — results match
        :meth:`node_scores` exactly, not just approximately. A single-graph
        batch falls through to :meth:`node_scores` directly, skipping the
        concatenate/split round-trip the micro-batcher would otherwise pay
        at batch size 1.
        """
        if not graphs:
            return []
        if len(graphs) == 1:
            return [self.node_scores(graphs[0])]
        sizes = [g.num_nodes for g in graphs]
        x = np.concatenate([np.asarray(g.x, dtype=np.float64) for g in graphs], axis=0)
        m = self.agg_cache.batch_operator(graphs)
        logits, _ = self._forward_arrays(x, m)
        return [part.copy() for part in np.split(logits, np.cumsum(sizes)[:-1])]

    def predict_batch(self, graphs: Sequence[CircuitGraph]) -> list[int]:
        """Most likely fault-origin index for each graph, one forward pass."""
        return [int(np.argmax(scores)) for scores in self.node_scores_batch(graphs)]

    def _forward(self, graph: CircuitGraph):
        x = np.asarray(graph.x, dtype=np.float64)
        m = self.agg_cache.get_or_build(graph)
        return self._forward_arrays(x, m)

    def _forward_arrays(self, x: np.ndarray, m: sp.csr_matrix):
        p = self.params
        mx = m @ x
        a1 = x @ p["W1s"] + mx @ p["W1n"] + p["b1"]
        h1 = np.maximum(a1, 0.0)
        mh1 = m @ h1
        a2 = h1 @ p["W2s"] + mh1 @ p["W2n"] + p["b2"]
        h2 = np.maximum(a2, 0.0)
        # The head is an (N, h) @ (h, 1) product; BLAS picks N-dependent gemv
        # strategies whose last-ulp rounding would break the exact
        # single-vs-batch parity promised by node_scores_batch. einsum keeps
        # a fixed per-row accumulation order regardless of N.
        logits = (np.einsum("nh,ho->no", h2, p["w3"]) + p["b3"]).ravel()
        cache = (x, m, mx, a1, h1, mh1, a2, h2)
        return logits, cache

    # -- training ---------------------------------------------------------

    def example(self, graph: CircuitGraph) -> TrainingExample:
        """The per-graph topology work of :meth:`loss_and_grads`, done once."""
        if graph.fault_index is None:
            raise ValueError(f"graph {graph.name!r} has no fault label")
        m = self.agg_cache.get_or_build(graph)
        return TrainingExample(graph.x, m, m.T, graph.fault_index)

    def loss_and_grads(self, graph: CircuitGraph | TrainingExample):
        """Cross-entropy of the per-graph softmax against the fault label.

        Takes a graph or its prepared :meth:`example` (the training loop
        builds each example once per run). Returns ``(loss, grads)`` with
        grads keyed like :attr:`params`.
        """
        ex = graph if isinstance(graph, TrainingExample) else self.example(graph)
        p = self.params
        # The phase() brackets are free when no profiler is active (shared
        # null context manager), so they live here unconditionally.
        with phase("forward"):
            logits, (x, m, mx, a1, h1, mh1, a2, h2) = self._forward_arrays(
                np.asarray(ex.x, dtype=np.float64), ex.m
            )

        with phase("backward"):
            z = logits - logits.max()
            expz = np.exp(z)
            probs = expz / expz.sum()
            loss = -float(np.log(max(probs[ex.fault_index], 1e-12)))

            dz = probs.copy()
            dz[ex.fault_index] -= 1.0
            dz = dz.reshape(-1, 1)  # (N, 1)

            grads: dict[str, np.ndarray] = {}
            grads["w3"] = h2.T @ dz
            grads["b3"] = dz.sum(axis=0)
            dh2 = dz @ p["w3"].T
            da2 = dh2 * (a2 > 0)
            grads["W2s"] = h1.T @ da2
            grads["W2n"] = mh1.T @ da2
            grads["b2"] = da2.sum(axis=0)
            dh1 = da2 @ p["W2s"].T + ex.mt @ (da2 @ p["W2n"].T)
            da1 = dh1 * (a1 > 0)
            grads["W1s"] = x.T @ da1
            grads["W1n"] = mx.T @ da1
            grads["b1"] = da1.sum(axis=0)
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
        failing every forward.
        """
        with np.load(path) as payload:
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
        """Stable content hash of the weights (used as a cache-key component
        and as the ad-hoc model identity when serving without a registry)."""
        digest = hashlib.sha256()
        for key in sorted(self.params):
            arr = np.ascontiguousarray(self.params[key])
            digest.update(key.encode())
            digest.update(arr.tobytes())
        return digest.hexdigest()


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
