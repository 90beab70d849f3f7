"""Resilience primitives for the serving stack.

Everything here exists to make failure modes *explicit, bounded, and
observable* instead of hanging callers or silently degrading:

- :class:`Deadline` — absolute-monotonic request deadlines propagated from
  the HTTP handler through :meth:`LocalizationService.localize` into the
  worker, so an expired request is dropped instead of occupying a
  forward pass.
- Structured exceptions (:class:`DeadlineExceededError`,
  :class:`LoadSheddedError`, :class:`CircuitOpenError`,
  :class:`WorkerCrashedError`, :class:`ServiceDrainingError`) that the HTTP
  layer maps onto 504/429/503 responses with machine-readable bodies.
- :class:`CircuitBreaker` — a half-open breaker that trips after
  consecutive failures and lets one trial through before closing again;
  the service guards its worker with one, the router each replica.
- :class:`HealthMonitor` — the ``ok -> degraded -> unhealthy`` state
  machine behind ``/healthz``, driven by worker restarts and recoveries.
- :class:`ExponentialBackoff` — the delay schedule between watchdog
  restarts of the service's worker.

None of these classes know about HTTP or the model; they are small,
lock-protected state machines that the service wires together.
"""

from __future__ import annotations

import random
import threading
import time
from collections.abc import Callable
from typing import Any

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceededError",
    "ExponentialBackoff",
    "HealthMonitor",
    "LoadSheddedError",
    "ResilienceError",
    "ServiceDrainingError",
    "WorkerCrashedError",
    "jittered",
]


# -- deadlines -------------------------------------------------------------


class Deadline:
    """An absolute point on the monotonic clock a request must finish by.

    Deadlines are created once at admission and *propagated* (never
    re-derived) so every layer — admission, queue wait, worker —
    measures the same budget. ``Deadline.after(None)`` is an infinite
    deadline that never expires.
    """

    __slots__ = ("budget_s", "expires_at")

    def __init__(self, expires_at: float | None, budget_s: float | None):
        self.expires_at = expires_at
        self.budget_s = budget_s

    @classmethod
    def after(cls, seconds: float | None) -> Deadline:
        if seconds is None:
            return cls(None, None)
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        return cls(time.monotonic() + seconds, seconds)

    def remaining(self) -> float | None:
        """Seconds left (may be negative), or ``None`` for no deadline."""
        if self.expires_at is None:
            return None
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return self.expires_at is not None and time.monotonic() >= self.expires_at


# -- structured failures ---------------------------------------------------


class ResilienceError(RuntimeError):
    """Base class for structured serving failures (never a silent hang)."""


class DeadlineExceededError(ResilienceError):
    """The request's deadline elapsed before a result was produced."""

    def __init__(self, deadline_s: float | None, where: str = "queue"):
        self.deadline_s = deadline_s
        self.where = where
        budget = f"{deadline_s:.3f}s" if deadline_s is not None else "?"
        super().__init__(f"deadline of {budget} exceeded in {where}")


class LoadSheddedError(ResilienceError):
    """Admission queue full: the request was shed instead of queued."""

    def __init__(self, queue_limit: int, retry_after_s: float):
        self.queue_limit = queue_limit
        self.retry_after_s = retry_after_s
        super().__init__(f"admission queue full ({queue_limit} waiting); request shed")


class CircuitOpenError(ResilienceError):
    """The service's circuit breaker is open; request refused at admission."""

    def __init__(self, retry_after_s: float):
        self.retry_after_s = retry_after_s
        super().__init__(f"circuit breaker open; retry after {retry_after_s:.1f}s")


class WorkerCrashedError(ResilienceError):
    """The worker died (or stalled) while this request was pending."""


class ServiceDrainingError(ResilienceError):
    """The service is draining/closed and no longer admits requests.

    The message intentionally contains ``closed``/``draining`` so callers
    matching on either word keep working.
    """

    def __init__(self, phase: str = "draining"):
        self.phase = phase
        super().__init__(f"service is {phase}; request refused")


# -- listened state machines -----------------------------------------------


class _StateMachine:
    """A lock-protected state whose transition listener runs outside the lock.

    Subclasses change state only through :meth:`_transition` while holding
    ``_lock``; it records each change into ``events``, and :meth:`_notify`
    fires the listener after the lock is released — listener code must never
    run under the machine's own lock (re-entrancy deadlock).
    """

    def __init__(self, initial: str, on_transition: Callable[[str, str], None] | None):
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = initial

    def set_transition_listener(self, listener: Callable[[str, str], None]) -> None:
        """Install/replace the transition callback (e.g. a metrics hook)."""
        self._on_transition = listener

    def _transition(self, new_state: str, events: list[tuple[str, str]]) -> None:
        old, self._state = self._state, new_state
        if old != new_state:
            events.append((old, new_state))

    def _notify(self, events: list[tuple[str, str]]) -> None:
        listener = self._on_transition
        if listener is not None:
            for old, new in events:
                listener(old, new)


# -- circuit breaker -------------------------------------------------------


class CircuitBreaker(_StateMachine):
    """Consecutive-failure circuit breaker with a single half-open trial.

    States: ``closed`` (normal) → ``open`` after ``failure_threshold``
    consecutive failures (admission refused) → ``half_open`` once
    ``reset_timeout_s`` has elapsed (exactly one trial request is let
    through) → ``closed`` on a success, or back to ``open`` on a failure.
    All transitions are lock-protected and observable via :meth:`snapshot`
    and the optional ``on_transition`` callback.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"
    STATES: tuple[str, ...] = (CLOSED, OPEN, HALF_OPEN)

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_s: float = 5.0,
        on_transition: Callable[[str, str], None] | None = None,
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        super().__init__(self.CLOSED, on_transition)
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._trial_claimed = False
        self._trips = 0

    @property
    def state(self) -> str:
        events: list[tuple[str, str]] = []
        with self._lock:
            self._maybe_half_open(events)
            state = self._state
        self._notify(events)
        return state

    def _maybe_half_open(self, events: list[tuple[str, str]]) -> None:
        if self._state == self.OPEN and (
            time.monotonic() - self._opened_at >= self.reset_timeout_s
        ):
            self._trial_claimed = False  # m3dlint: disable=M3D301 reason=callers hold _lock
            self._transition(self.HALF_OPEN, events)

    def allow(self) -> bool:
        """Admission check: may one more request enter the pipeline now?"""
        events: list[tuple[str, str]] = []
        with self._lock:
            self._maybe_half_open(events)
            if self._state == self.CLOSED:
                admitted = True
            elif self._state == self.HALF_OPEN and not self._trial_claimed:
                self._trial_claimed = True
                admitted = True
            else:
                admitted = False
        self._notify(events)
        return admitted

    def retry_after_s(self) -> float:
        """How long a refused caller should wait before retrying."""
        with self._lock:
            waited = time.monotonic() - self._opened_at
            return max(0.1, self.reset_timeout_s - waited)

    def record_success(self) -> None:
        events: list[tuple[str, str]] = []
        with self._lock:
            self._consecutive_failures = 0
            if self._state != self.CLOSED:
                self._transition(self.CLOSED, events)
        self._notify(events)

    def record_failure(self) -> None:
        events: list[tuple[str, str]] = []
        with self._lock:
            self._maybe_half_open(events)
            self._consecutive_failures += 1
            if self._state == self.HALF_OPEN or (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._opened_at = time.monotonic()
                self._trips += 1
                self._transition(self.OPEN, events)
        self._notify(events)

    def snapshot(self) -> dict[str, Any]:
        events: list[tuple[str, str]] = []
        with self._lock:
            self._maybe_half_open(events)
            snap = {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "trips": self._trips,
            }
        self._notify(events)
        return snap


# -- health state machine --------------------------------------------------


class HealthMonitor(_StateMachine):
    """``ok`` / ``degraded`` / ``unhealthy`` state machine for ``/healthz``.

    - a worker failure (crash or stall) moves ``ok -> degraded``;
    - ``unhealthy_after`` consecutive failures without an intervening
      success move ``degraded -> unhealthy``;
    - any successful forward pass moves the state back to ``ok`` and resets the
      failure streak (recovery is observable, not just collapse).
    """

    OK = "ok"
    DEGRADED = "degraded"
    UNHEALTHY = "unhealthy"
    STATES: tuple[str, ...] = (OK, DEGRADED, UNHEALTHY)

    def __init__(
        self,
        unhealthy_after: int = 3,
        on_transition: Callable[[str, str], None] | None = None,
    ):
        if unhealthy_after < 1:
            raise ValueError(f"unhealthy_after must be >= 1, got {unhealthy_after}")
        super().__init__(self.OK, on_transition)
        self.unhealthy_after = unhealthy_after
        self._consecutive_failures = 0
        self._worker_restarts = 0
        self._last_failure: str | None = None

    @property
    def status(self) -> str:
        with self._lock:
            return self._state

    def record_worker_failure(self, reason: str) -> None:
        events: list[tuple[str, str]] = []
        with self._lock:
            self._consecutive_failures += 1
            self._worker_restarts += 1
            self._last_failure = reason
            if self._consecutive_failures >= self.unhealthy_after:
                self._transition(self.UNHEALTHY, events)
            else:
                self._transition(self.DEGRADED, events)
        self._notify(events)

    def record_success(self) -> None:
        events: list[tuple[str, str]] = []
        with self._lock:
            self._consecutive_failures = 0
            if self._state != self.OK:
                self._transition(self.OK, events)
        self._notify(events)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "status": self._state,
                "consecutive_worker_failures": self._consecutive_failures,
                "worker_restarts": self._worker_restarts,
                "last_failure": self._last_failure,
            }


# -- backoff + retry -------------------------------------------------------

#: Process-wide jitter source. Deliberately unseeded: jitter exists to
#: de-synchronize *different* clients, so reproducibility would defeat it.
#: Retry *schedules* (ExponentialBackoff) stay deterministic; only advertised
#: retry *hints* are jittered.
_JITTER_RNG = random.Random()


def jittered(value_s: float, fraction: float = 0.2, rng: random.Random | None = None) -> float:
    """``value_s`` spread uniformly over ``±fraction`` (default ±20 %).

    Applied to ``Retry-After`` hints on 429/503 responses so a burst of shed
    clients does not stampede back in lockstep at the same instant. Callers
    asserting behavior should test the bounds, never the exact value.
    """
    if value_s < 0:
        raise ValueError(f"value_s must be >= 0, got {value_s}")
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    source = _JITTER_RNG if rng is None else rng
    return value_s * (1.0 + fraction * (2.0 * source.random() - 1.0))


class ExponentialBackoff:
    """Deterministic exponential backoff schedule (no jitter: tests and
    chaos replays must be reproducible)."""

    def __init__(self, base_s: float = 0.1, factor: float = 2.0, max_s: float = 5.0):
        if base_s <= 0 or factor < 1.0 or max_s < base_s:
            raise ValueError(
                f"invalid backoff (base {base_s}, factor {factor}, max {max_s})"
            )
        self.base_s = base_s
        self.factor = factor
        self.max_s = max_s
        self._attempt = 0

    def next_delay(self) -> float:
        delay = min(self.base_s * (self.factor**self._attempt), self.max_s)
        self._attempt += 1
        return delay

    def reset(self) -> None:
        self._attempt = 0
