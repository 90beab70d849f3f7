"""Unit tests for the resilience primitives: deadlines, breaker, health,
backoff, and the state-gauge metric they report through."""

import time

import pytest

from m3d_fault_loc.serve.metrics import MetricsRegistry, StateGauge
from m3d_fault_loc.serve.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceededError,
    ExponentialBackoff,
    HealthMonitor,
    LoadSheddedError,
)


# -- Deadline --------------------------------------------------------------


def test_deadline_counts_down_and_expires():
    deadline = Deadline.after(0.05)
    assert not deadline.expired()
    remaining = deadline.remaining()
    assert remaining is not None and 0 < remaining <= 0.05
    time.sleep(0.06)
    assert deadline.expired()
    assert deadline.remaining() < 0


def test_infinite_deadline_never_expires():
    deadline = Deadline.after(None)
    assert deadline.remaining() is None
    assert not deadline.expired()


def test_deadline_rejects_non_positive_budget():
    with pytest.raises(ValueError, match="positive"):
        Deadline.after(0)
    with pytest.raises(ValueError, match="positive"):
        Deadline.after(-1)


def test_structured_errors_carry_context():
    exc = DeadlineExceededError(2.5, where="batch queue")
    assert exc.deadline_s == 2.5 and "batch queue" in str(exc)
    shed = LoadSheddedError(128, retry_after_s=1.5)
    assert shed.queue_limit == 128 and shed.retry_after_s == 1.5


# -- CircuitBreaker --------------------------------------------------------


def test_breaker_trips_after_consecutive_failures():
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=60)
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED and breaker.allow()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()
    assert breaker.retry_after_s() > 0


def test_breaker_success_resets_failure_streak():
    breaker = CircuitBreaker(failure_threshold=2)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED


def test_breaker_half_open_probe_then_close():
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=0.05)
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    time.sleep(0.06)
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.allow()  # one probe passes...
    assert not breaker.allow()  # ...the next caller is still refused
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.allow()


def test_breaker_half_open_probe_failure_reopens():
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=0.05)
    breaker.record_failure()
    time.sleep(0.06)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()


def test_breaker_transitions_are_observable():
    seen: list[tuple[str, str]] = []
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=60)
    breaker.set_transition_listener(lambda old, new: seen.append((old, new)))
    breaker.record_failure()
    breaker.record_success()
    assert seen == [("closed", "open"), ("open", "closed")]
    assert breaker.snapshot()["trips"] == 1


# -- HealthMonitor ---------------------------------------------------------


def test_health_degrades_then_goes_unhealthy_then_recovers():
    health = HealthMonitor(unhealthy_after=2)
    assert health.status == HealthMonitor.OK
    health.record_worker_failure("worker died")
    assert health.status == HealthMonitor.DEGRADED
    health.record_worker_failure("worker died again")
    assert health.status == HealthMonitor.UNHEALTHY
    health.record_success()
    assert health.status == HealthMonitor.OK
    snap = health.snapshot()
    assert snap["worker_restarts"] == 2
    assert snap["consecutive_worker_failures"] == 0
    assert "again" in snap["last_failure"]


# -- ExponentialBackoff ----------------------------------------------------


def test_exponential_backoff_schedule_is_capped():
    backoff = ExponentialBackoff(base_s=0.1, factor=2.0, max_s=0.5)
    assert [backoff.next_delay() for _ in range(5)] == [0.1, 0.2, 0.4, 0.5, 0.5]
    backoff.reset()
    assert backoff.next_delay() == 0.1


@pytest.mark.parametrize(
    "knobs, expected",
    [
        # the service's default worker-restart schedule
        (dict(base_s=0.05, factor=2.0, max_s=2.0), [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]),
        (dict(base_s=0.5, factor=1.0, max_s=0.5), [0.5, 0.5, 0.5]),
        (dict(base_s=0.1, factor=3.0, max_s=1.0), [0.1, 0.3, 0.9, 1.0, 1.0]),
        (dict(base_s=0.2, factor=2.0, max_s=0.2), [0.2, 0.2, 0.2]),
    ],
)
def test_exponential_backoff_next_delay_follows_the_schedule(knobs, expected):
    backoff = ExponentialBackoff(**knobs)
    assert [backoff.next_delay() for _ in expected] == pytest.approx(expected)
    backoff.reset()
    assert [backoff.next_delay() for _ in expected] == pytest.approx(expected)


@pytest.mark.parametrize(
    "knobs",
    [
        dict(base_s=0.0, factor=2.0, max_s=1.0),
        dict(base_s=0.1, factor=0.5, max_s=1.0),
        dict(base_s=0.5, factor=2.0, max_s=0.1),
    ],
)
def test_exponential_backoff_rejects_invalid_knobs(knobs):
    with pytest.raises(ValueError, match="invalid backoff"):
        ExponentialBackoff(**knobs)


# -- StateGauge ------------------------------------------------------------


def test_state_gauge_is_one_hot_in_prometheus_output():
    m = MetricsRegistry()
    gauge = m.state_gauge("m3d_test_state", "a state", states=("ok", "degraded", "unhealthy"))
    gauge.set_state("degraded")
    text = m.render_prometheus()
    assert '# TYPE m3d_test_state gauge' in text
    assert 'm3d_test_state{state="degraded"} 1' in text
    assert 'm3d_test_state{state="ok"} 0' in text
    assert m.to_json_dict()["m3d_test_state"]["state"] == "degraded"


def test_state_gauge_rejects_unknown_states():
    gauge = StateGauge("s", "", states=("a", "b"))
    with pytest.raises(ValueError, match="unknown state"):
        gauge.set_state("c")
