"""Deterministic fault injection for the serving stack.

At the scale the paper targets ("billions of requests"), worker crashes,
slow shards and transient I/O errors are the steady state — so every
failure path in this repo must be *testable and benchmarkable*, not just
believed.  This module is the chaos harness the resilience layer is
driven by: a seeded, thread-safe :class:`FaultPlan` of site-keyed
injections, armed globally and consulted by ``fault_point`` hooks
threaded through the worker, pool, scatter/gather and gateway.

Fault kinds (:data:`FAULT_KINDS`):

* ``crash`` — the worker dies.  In a subprocess worker this is a real
  ``os._exit`` (the parent reads EOF on that worker's pipe, exactly as
  after a segfault or an OOM kill); in inline workers it raises
  :class:`InjectedCrash` (same supervision path, no process to kill).
* ``slow`` — the site stalls for ``delay_s`` (a degraded replica).
* ``io_error`` — the site raises :class:`InjectedIOError`, a transient,
  retryable I/O failure (a flaky mmap read, a dropped connection).
* ``corrupt`` — the site's *value* comes back mangled (a truncated
  worker response); downstream validation must catch it.

Determinism: every decision is a pure function of ``(seed, salt, site,
call_number)`` through :func:`~repro.common.rng.stable_hash` — re-running
a plan replays the same injection schedule.  Every process worker
re-arms the plan with its own ``salt`` (its *spawn* number), so a
request that crashed its worker does not deterministically crash every
replacement worker forever; the schedule stays reproducible because
spawn numbers themselves are deterministic (1, 2, 3, …).

Zero overhead when disarmed: :func:`fault_point` is one global ``None``
check — no plan, no lock, no hashing.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Iterator

from repro.common.rng import stable_hash

FAULT_KINDS = ("crash", "slow", "io_error", "corrupt")

# Sites instrumented across the serving stack (a plan may name any string,
# but these are the hooks that exist today).
SITE_WORKER_EXECUTE = "worker.execute"  # raising faults inside a worker
SITE_WORKER_RESULT = "worker.result"  # corruption of a worker's result
SITE_POOL_SUBMIT = "pool.submit"  # dispatch-side transient failures
SITE_GATEWAY_ADMIT = "gateway.admit"  # front-door stalls / flakes

_DECISION_SPACE = 2**31


class InjectedFault(Exception):
    """Base class of every raised injection (never leaves the harness
    unclassified: the resilience layer treats these like their real
    counterparts)."""


class InjectedCrash(InjectedFault):
    """A simulated worker death for executors with no process to kill."""


class InjectedIOError(InjectedFault, IOError):
    """A transient injected I/O failure (retryable, like a real IOError)."""


@dataclass(frozen=True)
class FaultSpec:
    """One site-keyed injection rule.

    Either probabilistic (``rate`` in ``(0, 1]`` — each call at ``site``
    independently triggers with that probability, seeded) or scheduled
    (``at_calls`` — exact 1-based call numbers).  ``max_injections``
    bounds the blast radius per plan instance (chaos with a budget);
    ``request_type`` narrows the rule to one wire type (``""`` = any).
    """

    site: str
    kind: str
    rate: float = 0.0
    at_calls: tuple[int, ...] = ()
    max_injections: int | None = None
    delay_s: float = 0.02
    request_type: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.rate == 0.0 and not self.at_calls:
            raise ValueError("spec needs a rate > 0 or explicit at_calls")


@dataclass
class FaultPlan:
    """A seeded, thread-safe set of injection rules.

    Plans are plain data (picklable), so a :class:`WorkerPool` hands the
    armed plan to each subprocess worker it forks.
    Call counters and injection counts are per-instance — a reseeded or
    unpickled copy starts fresh.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    salt: int = 0
    # Mutable run state is init=False: a dataclasses.replace (reseeded)
    # or an unpickle must start with fresh counters and its own lock.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )
    _calls: dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _injected: dict[int, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)

    def reseeded(self, salt: int) -> "FaultPlan":
        """A fresh-countered copy with ``salt`` mixed into every decision.

        Each process worker re-arms the plan under its spawn number: a
        replacement replica draws a *different* (but still deterministic)
        schedule, so a scheduled crash cannot permanently wedge the fleet.
        """
        return replace(self, salt=salt)

    def decide(self, site: str, request_type: str = "") -> FaultSpec | None:
        """The injection (if any) for this call at ``site``.

        Each call advances the site's counter exactly once; the first
        matching spec wins.
        """
        with self._lock:
            call_number = self._calls.get(site, 0) + 1
            self._calls[site] = call_number
            for index, spec in enumerate(self.specs):
                if spec.site != site:
                    continue
                if spec.request_type and spec.request_type != request_type:
                    continue
                injected = self._injected.get(index, 0)
                if spec.max_injections is not None and injected >= spec.max_injections:
                    continue
                if spec.at_calls:
                    triggered = call_number in spec.at_calls
                else:
                    draw = stable_hash(
                        f"fault:{self.seed}:{self.salt}:{site}:{call_number}",
                        _DECISION_SPACE,
                    )
                    triggered = draw < spec.rate * _DECISION_SPACE
                if triggered:
                    self._injected[index] = injected + 1
                    return spec
            return None

    def injections(self) -> int:
        """Total injections fired by this plan instance so far."""
        with self._lock:
            return sum(self._injected.values())

    def calls(self, site: str) -> int:
        """How many times ``site`` has been evaluated on this instance."""
        with self._lock:
            return self._calls.get(site, 0)

    def __getstate__(self) -> dict:
        return {"specs": self.specs, "seed": self.seed, "salt": self.salt}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)


# -- the global arming point ---------------------------------------------------
#
# One process-wide plan: the hooks below are called from hot paths in many
# threads, and "no chaos configured" must cost a single None check.

_ACTIVE: FaultPlan | None = None
# Subprocess workers set this via mark_worker_process(): a "crash" there
# must be a real process death, not an exception the worker could catch.
_CRASH_EXITS = False


def arm(plan: FaultPlan) -> FaultPlan:
    """Activate ``plan`` process-wide (returns it for chaining)."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def disarm() -> None:
    """Deactivate fault injection (the hooks go back to zero work)."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> FaultPlan | None:
    """The armed plan, or ``None``."""
    return _ACTIVE


@contextmanager
def armed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for a ``with`` block, restoring the previous plan after."""
    global _ACTIVE
    previous = _ACTIVE
    arm(plan)
    try:
        yield plan
    finally:
        _ACTIVE = previous


def mark_worker_process(flag: bool = True) -> None:
    """Declare this process a subprocess worker: crashes become ``os._exit``."""
    global _CRASH_EXITS
    _CRASH_EXITS = flag


def fault_point(site: str, value: Any = None, request_type: str = "") -> Any:
    """The injection hook: raise/stall/corrupt per the armed plan.

    Returns ``value`` (possibly corrupted) so result-bearing sites can
    wrap in place: ``result = fault_point(SITE, result)``.  With no plan
    armed this is one global ``None`` check.
    """
    plan = _ACTIVE
    if plan is None:
        return value
    spec = plan.decide(site, request_type)
    if spec is None:
        return value
    if spec.kind == "slow":
        time.sleep(spec.delay_s)
        return value
    if spec.kind == "io_error":
        raise InjectedIOError(f"injected transient I/O failure at {site}")
    if spec.kind == "crash":
        if _CRASH_EXITS:
            os._exit(23)
        raise InjectedCrash(f"injected worker crash at {site}")
    # corrupt: a truncated response — the shape a partial read or a
    # mid-write crash produces.  Downstream length validation must catch
    # it (and does: WorkerPool.resolve checks every family's item count).
    if isinstance(value, list):
        return value[:-1] if value else [None]
    return None
