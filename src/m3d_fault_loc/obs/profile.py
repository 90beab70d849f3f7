"""Training-loop phase profiler: per-epoch wall-time and memory splits.

``m3d-train --profile`` activates a :class:`PhaseProfiler` for the run;
instrumented code brackets its work with the module-level :func:`phase`
context manager (``data_gen``, ``forward``, ``backward``, ``optimizer_step``,
``eval``). The active profiler is carried in a :mod:`contextvars` variable,
so the instrumentation can live *permanently* in library code (e.g. the
localizer's ``loss_and_grads``): with no profiler active, :func:`phase`
returns a shared null context manager after one ``ContextVar.get`` — well
under 5 µs per phase boundary, asserted by a micro-benchmark in
``tests/test_obs_profile.py``, the same bar the tracer's no-op path meets.

Memory attribution (``--profile-memory``) uses :mod:`tracemalloc` behind a
flag because tracing allocations slows the loop; the peak is reset on entry
to each **outermost** phase and read back on exit, so nested phases (``forward``
inside a batch loop) never double-count and the per-phase high-water marks
stay comparable.

The profiler is deliberately single-context: one training loop, one
profiler, no locks. Per-epoch results are drained with :meth:`PhaseProfiler.drain`
and land as ``"profile"`` rows on the ``--metrics-log`` telemetry stream.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import nullcontext
from contextvars import ContextVar
from typing import Any

from m3d_fault_loc.obs.context import NULL_CONTEXT

#: The profiler active in this context, if any. ``phase()`` consults it on
#: every call; ``None`` (the overwhelmingly common case outside ``--profile``
#: runs) short-circuits to the shared null context manager.
_ACTIVE: ContextVar["PhaseProfiler | None"] = ContextVar(
    "m3d_phase_profiler", default=None
)

#: Canonical phase names used by the training loop, in waterfall order.
TRAIN_PHASES: tuple[str, ...] = (
    "data_gen", "forward", "backward", "optimizer_step", "eval",
)


class _PhaseContext:
    """Times one phase and records it into the owning profiler on exit."""

    __slots__ = ("_profiler", "_name", "_t0", "_outermost")

    def __init__(self, profiler: "PhaseProfiler", name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_PhaseContext":
        self._outermost = self._profiler._enter()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        duration = time.perf_counter() - self._t0
        self._profiler._exit(self._name, duration, self._outermost)
        return False


class PhaseProfiler:
    """Accumulates per-phase wall time (and optional allocation peaks).

    Use as a context manager to bind/unbind the ambient profiler::

        profiler = PhaseProfiler(memory=True)
        with profiler:
            with phase("forward"):
                ...
        rows = profiler.drain()

    ``drain()`` returns and clears the accumulated totals — the training
    loop calls it once per epoch so each telemetry row covers exactly one
    epoch. Single-threaded by design (one training loop owns it); the
    contextvar binding keeps concurrent loops in separate contexts.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self._wall_s: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        self._peak_bytes: dict[str, int] = {}
        self._depth = 0
        self._started_tracemalloc = False
        self._token: Any = None

    # -- ambient binding ---------------------------------------------------

    def __enter__(self) -> "PhaseProfiler":
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False

    # -- recording ---------------------------------------------------------

    def phase(self, name: str) -> _PhaseContext:
        return _PhaseContext(self, name)

    def _enter(self) -> bool:
        """Bump nesting depth; True when this is the outermost phase."""
        self._depth += 1
        outermost = self._depth == 1
        if outermost and self.memory and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        return outermost

    def _exit(self, name: str, duration_s: float, outermost: bool) -> None:
        self._depth -= 1
        self._wall_s[name] = self._wall_s.get(name, 0.0) + duration_s
        self._calls[name] = self._calls.get(name, 0) + 1
        if outermost and self.memory and tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            if peak > self._peak_bytes.get(name, 0):
                self._peak_bytes[name] = peak

    # -- readers -----------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Per-phase totals accumulated since the last :meth:`drain`."""
        out: dict[str, dict[str, Any]] = {}
        for name in self._wall_s:
            row: dict[str, Any] = {
                "wall_s": round(self._wall_s[name], 6),
                "calls": self._calls.get(name, 0),
            }
            if name in self._peak_bytes:
                row["peak_kb"] = round(self._peak_bytes[name] / 1024.0, 1)
            out[name] = row
        return out

    def drain(self) -> dict[str, dict[str, Any]]:
        """Return the per-phase totals and reset for the next epoch."""
        out = self.snapshot()
        self._wall_s.clear()
        self._calls.clear()
        self._peak_bytes.clear()
        return out


def phase(name: str) -> _PhaseContext | nullcontext[None]:
    """Bracket one phase of the active profiler; no-op when none is active.

    Safe to leave in hot library code unconditionally: the inactive path is
    one ``ContextVar.get`` plus a shared null context manager.
    """
    profiler = _ACTIVE.get()
    if profiler is None:
        return NULL_CONTEXT
    return profiler.phase(name)


def active_profiler() -> PhaseProfiler | None:
    """The profiler bound to the current context, if any."""
    return _ACTIVE.get()
