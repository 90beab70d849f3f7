"""Machine-speed probe: report CPU-bound times at one reference speed.

On a shared machine the same Python and numpy work ran up to twice as slow
for stretches of seconds to a minute (other tenants loading the same cores);
on the 2-core machine this benchmark was defined on, raw training epoch
medians moved between 110 and 230 ms from run to run. Serving latency is
set by the kernel's delayed-ACK timer and does not move with CPU speed;
training, dataset synthesis and process start-up do.

:func:`probe_ms` times a fixed slice of numpy and interpreter work that no
repository code runs. Measured right before and right after the work it
calibrates, it slows down with it. A time ``t`` measured while the probe
took ``p`` on average is reported as ``t * REFERENCE_MS / p``: the time the
work takes when the probe runs at its reference speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median :func:`probe_ms` on the 2-core x86-64 machine this benchmark was
#: defined on, with nothing else running in the container.
REFERENCE_MS = 7.5
#: Probes on each side of a set-up step.
PROBES = 3

_A = np.random.default_rng(0).random((120, 32))
_B = np.random.default_rng(1).random((32, 32))


def probe_ms() -> float:
    """Time (ms) of fixed small matmuls and an interpreter loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(240):
        acc += float(np.maximum(_A @ _B, 0.0).sum())
    total = 0
    for i in range(160_000):
        total += i
    return (time.perf_counter() - t0) * 1e3


def probe_median_ms() -> float:
    return statistics.median(probe_ms() for _ in range(PROBES))


def at_reference(measured: float, probe: float) -> float:
    """``measured`` rescaled to the reference machine speed."""
    return measured * REFERENCE_MS / probe
