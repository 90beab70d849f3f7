"""``m3dlint`` static-analysis subsystem.

Two sides:

- **Contract checker** (:mod:`m3d_fault_loc.analysis.graph_rules`): declarative
  rules validating circuit graphs against the schema contract before they
  reach training or inference.
- **Code lint** (:mod:`m3d_fault_loc.analysis.code_rules`): an AST pass over
  the Python stack itself, targeting GNN-training footguns.
- **Concurrency lint** (:mod:`m3d_fault_loc.analysis.concurrency_rules`):
  the M3D3xx lock-discipline rules over the same AST machinery, the static
  half of the race tooling (the dynamic half is
  :mod:`m3d_fault_loc.testing.racecheck`).

All report :class:`~m3d_fault_loc.analysis.violations.Violation` findings and
are exposed through the ``m3dlint`` CLI (:mod:`m3d_fault_loc.analysis.cli`).
Findings can be acknowledged in place with ``# m3dlint: disable=...``
pragmas (:mod:`m3d_fault_loc.analysis.suppress`).
"""
