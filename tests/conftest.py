"""Shared fixtures: the racecheck lock-order sanitizer for threaded suites.

The chaos and concurrency-stress suites run with ``threading.Lock``/``RLock``
instrumented by :mod:`m3d_fault_loc.testing.racecheck`. Any lock-order
inversion or foreign release observed during such a test fails it — the CI
``concurrency-sanitize`` job depends on this fixture, not on per-test
boilerplate.

Long holds are *not* asserted here (slow CI machines would flap); the
stress test asserts them explicitly with its own threshold.
"""

from __future__ import annotations

from collections.abc import Iterator

import pytest

from m3d_fault_loc.testing import racecheck

#: Test modules whose lock traffic runs under the sanitizer.
RACECHECK_MODULES = (
    "test_chaos",
    "test_concurrency_stress",
    "test_router",
    "test_serve_http",
)


@pytest.fixture(autouse=True)
def racecheck_guard(
    request: pytest.FixtureRequest,
) -> Iterator[racecheck.LockOrderSanitizer | None]:
    if request.module.__name__ not in RACECHECK_MODULES:
        yield None
        return
    with racecheck.instrumented(long_hold_ms=250.0) as sanitizer:
        yield sanitizer
    report = sanitizer.report()
    problems = [i.describe() for i in report.inversions]
    problems += [f.describe() for f in report.foreign_releases]
    if problems:
        pytest.fail(report.summary() + "\n" + "\n".join(problems))
