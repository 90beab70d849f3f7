"""Benchmark support shared with ``e2ebench``: the machine fingerprint
(:mod:`m3d_fault_loc.bench.harness`).

The benchmark itself is ``e2ebench/`` at the repository root, declared by
``BENCHMARK.json``; see ``e2ebench/README.md``.
"""
