"""Cached CSR aggregation operators for the localizer hot path, and the one
call into scipy's CSR kernel that applies them.

Building the sparse in-neighbor-mean operator (in-degree scatter, COO
assembly, CSR conversion) costs more than applying it. It is a pure
function of the graph *topology*, which in a serving workload repeats far
more often than the feature matrix does (one design, many failing dies) —
so this module makes it cacheable:

- :func:`build_in_neighbor_mean` is the one operator constructor;
- :class:`AggregationOperatorCache` is a byte-bounded, thread-safe LRU of
  built operators keyed by :func:`topology_digest`, so every observation of
  one netlist shares one operator;
- :func:`aggregate` and :func:`aggregate_transpose` apply an operator and
  its transpose to a dense block by calling ``csr_matvecs`` /
  ``csc_matvecs`` from ``scipy.sparse._sparsetools`` directly, into a
  caller-owned buffer. That is the call ``m @ h`` and ``m.T @ h`` end in,
  so the floats are the same; what is skipped is scipy's dispatch, the copy
  of a strided input and the fresh zeroed result (on a 2-core Xeon, a
  contiguous ``(129, 32)`` ``m @ h`` took 6.5 µs, the kernel 3.4 µs). It is
  the only module that touches the private ``_sparsetools``
  (``tests/test_import_footprint.py``).

Exactness matters: a served score must not depend on whether the operator
came from the cache, and it does not, because a cached operator is the
*same array contents* a fresh build would produce (asserted by the parity
suite in ``tests/test_agg_cache.py``).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from m3d_fault_loc.graph.schema import CircuitGraph

#: Bump when the operator recipe changes; keys from different recipes never mix.
_TOPOLOGY_RECIPE = b"m3d-agg-topology-v1"

#: Default byte budget for cached operator arrays (data + indices + indptr).
DEFAULT_CAPACITY_BYTES = 64 * 1024 * 1024
#: Default cap on cached operator count, independent of the byte budget.
DEFAULT_MAX_ENTRIES = 1024


def build_in_neighbor_mean(graph: CircuitGraph) -> sp.csr_matrix:
    """Row-normalized in-neighbor aggregation matrix M, so ``(M @ H)[i]`` is
    the mean feature of i's upstream drivers (zero row for PIs)."""
    n = graph.num_nodes
    if graph.num_edges == 0:
        return sp.csr_matrix((n, n), dtype=np.float64)
    src, dst = graph.edge_index[0], graph.edge_index[1]
    indeg = np.maximum(graph.in_degrees(), 1).astype(np.float64)
    m = sp.csr_matrix((1.0 / indeg[dst], (dst, src)), shape=(n, n))
    m.sort_indices()
    return m


def aggregate(m: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[...] = m @ x`` for a CSR operator ``m``; returns ``out``.

    ``out`` must be a C-contiguous float64 ``(m.shape[0], x.shape[1])``
    array; it is zeroed, then the kernel accumulates into it. ``x`` is read
    as scipy reads it (a strided or float32 ``x`` is copied or cast on the
    way in, so pass float64 C-contiguous features to avoid the temporary).
    """
    _check_product(m.shape[1], m.shape[0], x, out)
    out.fill(0.0)
    _sparsetools.csr_matvecs(
        m.shape[0], m.shape[1], x.shape[1], m.indptr, m.indices, m.data, x.ravel(), out.ravel()
    )
    return out


def aggregate_transpose(m: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[...] = m.T @ x``: :func:`aggregate` for the transpose, reading
    ``m``'s CSR arrays as the CSC arrays of ``m.T`` (what ``m.T`` holds)."""
    _check_product(m.shape[0], m.shape[1], x, out)
    out.fill(0.0)
    _sparsetools.csc_matvecs(
        m.shape[1], m.shape[0], x.shape[1], m.indptr, m.indices, m.data, x.ravel(), out.ravel()
    )
    return out


def _check_product(inner: int, rows: int, x: np.ndarray, out: np.ndarray) -> None:
    """The kernel writes through raw pointers and checks no sizes: refuse a
    mismatched shape, or an ``out`` whose ``ravel()`` would be a copy."""
    if (
        x.ndim != 2
        or x.shape[0] != inner
        or out.shape != (rows, x.shape[1])
        or out.dtype != np.float64
        or not out.flags.c_contiguous
    ):
        raise ValueError(
            f"aggregate: operator needs x of {inner} rows and a C-contiguous float64 out of "
            f"shape ({rows}, k); got x {x.shape}, out {out.shape} {out.dtype}"
        )


def topology_digest(graph: CircuitGraph) -> str:
    """Content hash of exactly what determines the aggregation operator.

    Deliberately narrower than the serve layer's ``graph_digest``: features,
    tiers, and labels don't enter the operator, so two fault observations of
    the same netlist share one cached operator under this key.
    """
    h = hashlib.sha256(_TOPOLOGY_RECIPE)
    h.update(str(graph.num_nodes).encode())
    edges = np.ascontiguousarray(graph.edge_index)
    h.update(str(edges.dtype).encode())
    h.update(str(edges.shape).encode())
    h.update(edges.tobytes())
    return h.hexdigest()


def operator_nbytes(m: sp.csr_matrix) -> int:
    """Resident size of one cached operator's arrays."""
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


class AggregationOperatorCache:
    """Byte-bounded, thread-safe LRU of built aggregation operators.

    Keys are :func:`topology_digest`, a SHA-256 content hash of exactly what
    the operator reads, so a key collision means identical bytes — a
    colliding-but-different graph cannot occur short of breaking the hash,
    and distinct topologies always land in distinct entries (asserted in the
    collision-safety tests).

    Eviction is LRU under two simultaneous bounds: total resident operator
    bytes (``capacity_bytes``) and entry count (``max_entries``). A single
    operator larger than the whole byte budget is returned but never
    retained, so one million-gate graph cannot pin the cache.
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ):
        if capacity_bytes < 1:
            raise ValueError(f"capacity_bytes must be >= 1, got {capacity_bytes}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.capacity_bytes = capacity_bytes
        self.max_entries = max_entries
        self._entries: OrderedDict[str, sp.csr_matrix] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(self, graph: CircuitGraph) -> sp.csr_matrix:
        """Cached operator for ``graph``, building (and retaining) on a miss."""
        key = topology_digest(graph)
        with self._lock:
            m = self._entries.get(key)
            if m is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return m
            self.misses += 1
        m = build_in_neighbor_mean(graph)
        cost = operator_nbytes(m)
        with self._lock:
            if cost <= self.capacity_bytes and key not in self._entries:
                self._entries[key] = m
                self._bytes += cost
                self._evict_locked()
        return m

    def _evict_locked(self) -> None:
        while self._entries and (
            self._bytes > self.capacity_bytes or len(self._entries) > self.max_entries
        ):
            _, victim = self._entries.popitem(last=False)
            # m3dlint: disable=M3D301 reason=_locked helper, only called with _lock held
            self._bytes -= operator_nbytes(victim)
            self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "bytes": self._bytes,
                "capacity_bytes": self.capacity_bytes,
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
