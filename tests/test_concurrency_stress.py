"""Concurrency stress: hammer the serving stack under the racecheck fixture.

The ``racecheck_guard`` autouse fixture in ``conftest.py`` instruments every
lock the service creates; this module's job is to generate the nastiest
realistic interleaving — concurrent ``localize`` callers and a
watchdog-driven worker restart in the middle of them — and then assert the
run produced

- zero lock-order inversions (fixture fails the test otherwise),
- zero foreign releases (fixture),
- no lock held longer than 250 ms (asserted here, explicitly),
- a resolved outcome for every request (result or structured error).
"""

from __future__ import annotations

import threading
import time

import pytest

from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario
from m3d_fault_loc.serve.resilience import ExponentialBackoff, ResilienceError
from m3d_fault_loc.serve.service import LocalizationService
from m3d_fault_loc.testing.chaos import CrashOnNthForwardModel

N_CLIENTS = 4
REQUESTS_PER_CLIENT = 12


@pytest.fixture(scope="module")
def graphs():
    return get_scenario("single_delay").generate(
        ScenarioSpec(n_graphs=6, n_gates=10, n_inputs=3, seed=11)
    )


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_localize_restart_storm_is_race_free(graphs, racecheck_guard):
    # The second forward dies hard, so the watchdog must restart the worker
    # while clients are queued.
    model = CrashOnNthForwardModel(
        DelayFaultLocalizer(hidden=8, seed=0), crash_on=2, crash_count=1, kill_worker=True
    )
    service = LocalizationService(
        model=model,
        watchdog_interval_s=0.03,
        restart_backoff=ExponentialBackoff(base_s=0.01, factor=2.0, max_s=0.05),
        drain_deadline_s=2.0,
    )
    outcomes: dict[str, object] = {}

    def client(idx: int) -> None:
        for req in range(REQUESTS_PER_CLIENT):
            key = f"c{idx}-r{req}"
            try:
                outcomes[key] = service.localize(
                    graphs[(idx + req) % len(graphs)], timeout_s=10.0
                )
            except ResilienceError as exc:
                outcomes[key] = exc

    with service:
        clients = [
            threading.Thread(target=client, args=(i,), daemon=True, name=f"client-{i}")
            for i in range(N_CLIENTS)
        ]
        for t in clients:
            t.start()

        assert wait_until(lambda: service.m_worker_restarts.value >= 1), (
            "the storm must include a watchdog-driven worker restart"
        )

        for t in clients:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in clients), "clients must not wedge"
    # service closed: every lock the stack took has been released.

    assert len(outcomes) == N_CLIENTS * REQUESTS_PER_CLIENT
    for key, outcome in outcomes.items():
        assert isinstance(outcome, ResilienceError) or hasattr(outcome, "num_nodes"), (
            f"request {key} ended with a non-structured outcome: {outcome!r}"
        )
    served = sum(1 for o in outcomes.values() if hasattr(o, "num_nodes"))
    assert served > 0, "the storm must include successfully served requests"

    report = racecheck_guard.report()
    assert report.acquisitions > 0, "the sanitizer must actually have observed the run"
    long_holds = [h.describe() for h in report.long_holds]
    assert not long_holds, f"locks held past 250 ms: {long_holds}"
    # inversions / foreign releases are asserted by the racecheck_guard
    # fixture at teardown — reaching this line with a healthy report means
    # the serve stack's lock hierarchy held up under the storm.
