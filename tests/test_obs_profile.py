"""Training-loop phase profiler: accumulation, nesting, memory, no-op cost."""

import time

from m3d_fault_loc.obs.context import NULL_CONTEXT
from m3d_fault_loc.obs.profile import (
    TRAIN_PHASES,
    PhaseProfiler,
    active_profiler,
    phase,
)


def test_phase_is_null_without_active_profiler():
    assert active_profiler() is None
    assert phase("forward") is NULL_CONTEXT
    with phase("forward"):  # must be harmless anywhere in library code
        pass


def test_profiler_accumulates_wall_time_and_calls():
    profiler = PhaseProfiler()
    with profiler:
        assert active_profiler() is profiler
        for _ in range(3):
            with phase("forward"):
                time.sleep(0.002)
        with phase("data_gen"):
            time.sleep(0.001)
    assert active_profiler() is None
    snap = profiler.snapshot()
    assert snap["forward"]["calls"] == 3
    assert snap["forward"]["wall_s"] >= 0.006
    assert snap["data_gen"]["calls"] == 1
    assert "peak_kb" not in snap["forward"]  # memory off by default


def test_nested_phases_both_recorded():
    profiler = PhaseProfiler()
    with profiler:
        with phase("optimizer_step"):
            with phase("forward"):
                time.sleep(0.001)
    snap = profiler.snapshot()
    assert snap["forward"]["calls"] == 1
    assert snap["optimizer_step"]["calls"] == 1
    # the outer phase's wall time contains the inner's
    assert snap["optimizer_step"]["wall_s"] >= snap["forward"]["wall_s"]


def test_drain_returns_and_resets():
    profiler = PhaseProfiler()
    with profiler:
        with phase("eval"):
            pass
    first = profiler.drain()
    assert first["eval"]["calls"] == 1
    assert profiler.drain() == {}  # epoch boundary: totals cleared


def test_memory_flag_records_peak_on_outermost_phase():
    profiler = PhaseProfiler(memory=True)
    with profiler:
        with phase("data_gen"):
            _ = [bytearray(1024) for _ in range(512)]  # ~512 KiB high-water
    snap = profiler.snapshot()
    assert snap["data_gen"]["peak_kb"] >= 512


def test_exceptions_propagate_and_still_record():
    profiler = PhaseProfiler()
    with profiler:
        try:
            with phase("backward"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert active_profiler() is profiler  # binding survives phase errors
    assert profiler.snapshot()["backward"]["calls"] == 1


def test_train_phase_names_are_canonical():
    assert TRAIN_PHASES == ("data_gen", "forward", "backward", "optimizer_step", "eval")


def test_disabled_phase_overhead_under_5us():
    # Same bar the tracer's no-op path meets: the permanent brackets in
    # loss_and_grads must be free when no profiler is active.
    assert active_profiler() is None
    n = 20_000
    t0 = time.perf_counter()
    for _ in range(n):
        with phase("forward"):
            pass
    per_phase_s = (time.perf_counter() - t0) / n
    assert per_phase_s < 5e-6, f"no-op phase cost {per_phase_s * 1e6:.2f}µs, budget 5µs"
