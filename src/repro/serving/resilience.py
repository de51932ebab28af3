"""Retry policies and circuit breakers for the serving stack.

The serving layer's requests are pure reads over an immutable snapshot
generation, so retrying is *always safe* — idempotence comes free, and
the only question is budget.  Two primitives encode it:

* :class:`RetryPolicy` — the budget and backoff (exponential, seeded
  jitter) of ``WorkerPool.resolve``, the serving stack's one retry loop,
  which retries only *retryable* error classes (:func:`is_retryable`): a
  transient ``IOError`` or a crashed worker is worth a resubmit, a
  deterministic ``ValueError`` would fail identically forever.
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine over a sliding outcome window.  When the worker fleet fails
  persistently, the breaker opens and callers fail fast (or degrade)
  instead of burning their latency budget on a dead backend; after
  ``open_duration_s`` a bounded number of half-open probes test recovery.

Both are thread-safe, allocation-light and deterministic under test
(seeded jitter, injectable clocks), matching the fault-injection
harness's replayability contract (:mod:`repro.serving.faults`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common import tracing
from repro.common.rng import stable_hash
from repro.serving.faults import InjectedCrash

if TYPE_CHECKING:
    from repro.common.metrics import MetricsRegistry

_JITTER_SPACE = 2**20


class TransientServingError(RuntimeError):
    """A failure worth retrying: the next attempt may land on a healthy
    replica (or a respawned one) and succeed."""


class WorkerCrashError(TransientServingError):
    """A worker died mid-request (EOF on its pipe), detected by its
    executor; the request was resubmitted or is resubmittable."""


class ShardResultError(TransientServingError):
    """A worker replica returned a malformed (wrong-length / corrupt)
    result — retryable, because a healthy replica will answer correctly."""


class CircuitOpenError(TransientServingError):
    """Fail-fast rejection by an open circuit breaker.  Retryable: a
    backoff that outlives ``open_duration_s`` rides the half-open probe."""

    def __init__(self, name: str) -> None:
        super().__init__(f"circuit breaker {name!r} is open")
        self.breaker = name


def is_retryable(exc: BaseException) -> bool:
    """Whether ``exc`` belongs to a transient, worth-retrying class.

    Retryable: serving-layer transients (a crashed worker among them —
    supervision respawns it), injected crashes, and the ``OSError``
    family (I/O flakes, timeouts, broken pipes, dropped connections).
    Everything else — ``ValueError``, ``TypeError``, ``KeyError``, … — is
    deterministic: the same request replays the same failure, so retrying
    only multiplies load.
    """
    return isinstance(exc, (TransientServingError, InjectedCrash, OSError))


def error_fields(exc: BaseException) -> tuple[bool, str]:
    """``(retryable, exception_type)`` for a structured error envelope."""
    return is_retryable(exc), type(exc).__name__


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded jitter, the budget that
    ``WorkerPool.resolve`` retries under.

    ``max_attempts`` counts the first try: 4 means one attempt plus up to
    three retries.  Backoff for retry *n* (1-based) is
    ``min(base * multiplier**(n-1), max)``, scaled into
    ``[1 - jitter, 1]`` by a deterministic per-(key, attempt) draw — the
    usual thundering-herd jitter, but replayable under test.
    """

    max_attempts: int = 4
    backoff_base_s: float = 0.01
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 0.5
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_s(self, retry_number: int, key: str = "") -> float:
        """Sleep before retry ``retry_number`` (1-based), jittered."""
        base = min(
            self.backoff_base_s * self.backoff_multiplier ** (retry_number - 1),
            self.backoff_max_s,
        )
        if self.jitter == 0.0:
            return base
        draw = stable_hash(
            f"retry:{self.seed}:{key}:{retry_number}", _JITTER_SPACE
        ) / _JITTER_SPACE
        return base * (1.0 - self.jitter * draw)


# -- circuit breaker -----------------------------------------------------------

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-rate circuit breaker over a sliding outcome window.

    *Closed*: traffic flows; outcomes land in a ``window``-sized deque.
    Once at least ``min_volume`` outcomes are present and the failure
    rate exceeds ``failure_threshold``, the breaker opens.

    *Open*: :meth:`allow` returns ``False`` (callers fail fast / degrade)
    until ``open_duration_s`` has elapsed, then the breaker half-opens.

    *Half-open*: up to ``half_open_probes`` concurrent probes pass; one
    success re-closes (window reset), one failure re-opens.

    Thread-safe; the clock is injectable so tests drive transitions
    without sleeping.  :meth:`snapshot` surfaces state + transition
    counts for ``stats()`` and ``/healthz``.
    """

    def __init__(
        self,
        name: str = "breaker",
        *,
        failure_threshold: float = 0.5,
        min_volume: int = 4,
        window: int = 16,
        open_duration_s: float = 1.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if min_volume < 1 or window < min_volume:
            raise ValueError(
                f"need window >= min_volume >= 1, got {window} / {min_volume}"
            )
        self.name = name
        self.failure_threshold = failure_threshold
        self.min_volume = min_volume
        self.window = window
        self.open_duration_s = open_duration_s
        self.half_open_probes = half_open_probes
        self.clock = clock
        self._outcomes: deque[bool] = deque()
        self._failure_count = 0
        self._elided_successes = 0
        self._state = CLOSED
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._transitions: dict[str, int] = {}
        self._lock = threading.Lock()
        # Optional observability sink: every state transition counts into
        # this registry (and onto the current trace span, when armed).
        self.metrics = metrics

    @property
    def state(self) -> str:
        """Current state, advancing open → half-open when the cooldown is up."""
        with self._lock:
            self._advance_locked()
            return self._state

    def allow(self) -> bool:
        """Whether a call may proceed (half-open admissions count as probes)."""
        # Lock-free fast path for the healthy steady state: a closed
        # breaker with an all-success window sits on every request's hot
        # path, and the dirty read is benign (at worst one call is
        # admitted on a microscopically stale CLOSED).
        if self._state == CLOSED and self._failure_count == 0:
            return True
        with self._lock:
            self._advance_locked()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                return True
            return False

    def check(self) -> None:
        """Raise :class:`CircuitOpenError` instead of returning ``False``."""
        if not self.allow():
            raise CircuitOpenError(self.name)

    def record_success(self) -> None:
        # Healthy steady state: appending a success to an all-success
        # window cannot change the failure rate (it is 0 either way), so
        # count it lock-free and materialise the streak only when a
        # failure needs diluting (same dirty-read argument as allow();
        # a racily lost increment under-counts a streak long past the
        # window size, which changes nothing).
        if self._state == CLOSED and self._failure_count == 0:
            self._elided_successes += 1
            return
        with self._lock:
            self._advance_locked()
            if self._state == HALF_OPEN:
                # Recovery confirmed: close with a clean window (stale
                # failures must not immediately re-open the breaker).
                self._clear_locked()
                self._move_locked(CLOSED)
            self._append_locked(True)

    def record_failure(self) -> None:
        with self._lock:
            self._advance_locked()
            self._append_locked(False)
            if self._state == HALF_OPEN:
                self._probes_in_flight = 0
                self._opened_at = self.clock()
                self._move_locked(OPEN)
            elif self._state == CLOSED and len(self._outcomes) >= self.min_volume:
                if self._failure_count / len(self._outcomes) > self.failure_threshold:
                    self._opened_at = self.clock()
                    self._move_locked(OPEN)

    def reset(self) -> None:
        """Close with a cleared window (supervision replaced the backend).

        A crashed worker fails every future it had in flight at once — one
        fault, N recorded failures.  Once the supervisor has swapped in a
        fresh worker that evidence is stale, and leaving it in the window
        would open the breaker against healthy replicas.
        """
        with self._lock:
            self._clear_locked()
            self._move_locked(CLOSED)

    def snapshot(self) -> dict[str, float | str]:
        """Flat state for stats surfaces and health endpoints."""
        with self._lock:
            self._advance_locked()
            out: dict[str, float | str] = {
                "state": self._state,
                "window": float(len(self._outcomes)),
                "failures": float(self._failure_count),
                "transitions": float(sum(self._transitions.values())),
            }
            for edge, count in self._transitions.items():
                out[f"transitions.{edge}"] = float(count)
            return out

    def _append_locked(self, ok: bool) -> None:
        # A failure arriving after an elided healthy streak must see the
        # same diluted window it would have with every success appended.
        if not ok and self._elided_successes:
            backfill = min(self._elided_successes, self.window - 1)
            self._elided_successes = 0
            for _ in range(backfill):
                self._append_locked(True)
        if len(self._outcomes) == self.window:
            if not self._outcomes.popleft():
                self._failure_count -= 1
        self._outcomes.append(ok)
        if not ok:
            self._failure_count += 1

    def _clear_locked(self) -> None:
        self._outcomes.clear()
        self._failure_count = 0
        self._elided_successes = 0
        self._probes_in_flight = 0

    def _advance_locked(self) -> None:
        if (
            self._state == OPEN
            and self.clock() - self._opened_at >= self.open_duration_s
        ):
            self._probes_in_flight = 0
            self._move_locked(HALF_OPEN)

    def _move_locked(self, state: str) -> None:
        if state != self._state:
            edge = f"{self._state}->{state}"
            self._transitions[edge] = self._transitions.get(edge, 0) + 1
            self._state = state
            # The metrics registry lock is a leaf (its methods call back
            # into nothing), so incrementing under self._lock is safe.
            if self.metrics is not None:
                self.metrics.incr("breaker.transitions")
                self.metrics.incr(f"breaker.transitions.{edge}")
            tracing.event(
                "breaker.transition", breaker=self.name, to=state, edge=edge
            )
