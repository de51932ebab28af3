"""Span-based request tracing for the serving + growth stack.

The paper's production platform watches a request cross many moving
parts — gateway admission, cache probes, scatter/gather over shards,
worker fleets, micro-batch flushes, generation swaps (§3.1, §4).  A flat
``timings`` dict cannot say *where inside the fan-out* the time went, or
which worker process answered which shard.  This module gives every
request one **trace**: a tree of spans with wall and exclusive times,
per-span attributes and point-in-time events, assembled into a bounded
in-memory ring the gateway exposes at ``GET /debug/traces``.

Design contracts (mirroring :mod:`repro.serving.faults`):

* **One global arming point** — :func:`arm` installs a :class:`Tracer`
  process-wide; with none armed every hook (:func:`span`,
  :func:`event`, :func:`current_context`) is a single global ``None``
  check.  Serving hot paths pay nothing until someone turns tracing on.
* **contextvars propagation** — the current span rides a
  :class:`~contextvars.ContextVar`, so nesting works across function
  calls, ``contextvars.copy_context()`` carries it into executor
  threads, and asyncio tasks inherit it for free.
* **Cross-process stitching** — a span's identity is a picklable
  :class:`TraceContext`.  The pool's dispatch path ships the current
  context to subprocess workers, which record their spans into a local
  *collector* tracer (``ring_capacity=0``) and return them alongside
  the result; the parent :meth:`Tracer.adopt`\\ s them into the live
  trace.  The same context travels the JSON wire protocol as an
  optional additive ``trace`` envelope field.
* **Head sampling** — ``Tracer(sample_every=N)`` traces every Nth
  locally-rooted request (deterministic counter, default 1 = all).  An
  unsampled root pins a suppression sentinel as the current context, so
  its whole subtree costs one ContextVar read per hook — full ~13-span
  tracing of a sub-millisecond fan-out costs a few percent of the
  request, which is exactly the tax sampling exists to amortise.
  Remotely seeded spans (a ``TraceContext`` parent) always record: the
  upstream tracer already made the decision for the whole trace.
* **Exclusive times** — at assembly each span's ``exclusive_ms`` is its
  wall time minus its direct children's wall time (clamped at zero), so
  a trace's self-times reconcile with the envelope's ``timings`` keys
  (stage spans additionally carry the exact envelope value as a
  ``stage_ms`` attribute).

Traces complete when their *root* span (the span that opened the trace
in this tracer) finishes; completed traces land in a bounded ring of
recent traces plus a slowest-N heap (the slow-query log).  Incomplete
traces are bounded too (``max_live``/``max_spans`` caps with drop
counters) — an abandoned root can never grow memory without bound.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "active",
    "arm",
    "armed",
    "current_context",
    "current_span",
    "disarm",
    "event",
    "seeded",
    "span",
    "using",
]

# Wire key of the optional trace field in a protocol-1 request envelope.
TRACE_FIELD = "trace"

_ID_COUNTER = itertools.count(1)  # .__next__ is atomic in CPython

# The pid is cached as a preformatted prefix: span creation is on the
# serving hot path and must not pay two getpid syscalls per span.  A
# forked child refreshes the cache (spawned children re-import fresh);
# the counter value is inherited either way, but the differing prefix
# keeps ids unique across processes.
_PID = os.getpid()
_ID_PREFIX = f"{_PID:x}-"


def _refresh_pid() -> None:
    global _PID, _ID_PREFIX
    _PID = os.getpid()
    _ID_PREFIX = f"{_PID:x}-"


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_refresh_pid)


def _new_id() -> str:
    """A process-unique id (pid-prefixed so child workers never collide)."""
    return _ID_PREFIX + format(next(_ID_COUNTER), "x")


# Wall-clock anchor: spans read one monotonic clock at each edge and
# derive their unix start time as ``anchor + start_perf`` on demand, so
# span creation pays a single clock read instead of two.  The anchor is
# per-process (perf_counter bases differ across processes) which is
# exactly what cross-process trace assembly needs — each process's
# records carry comparable absolute times.
_UNIX_ANCHOR = time.time() - time.perf_counter()


@dataclass(frozen=True)
class TraceContext:
    """The picklable identity of a position in a trace.

    Everything cross-boundary propagation needs: which trace, and which
    span new work should parent under.  Ships through pickle (process
    pools) and JSON (the protocol envelope's ``trace`` field).
    """

    trace_id: str
    span_id: str

    def to_wire(self) -> dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, raw: Any) -> "TraceContext | None":
        """Parse a wire ``trace`` field; ``None`` on anything malformed.

        Trace context is advisory metadata — a bad field must never fail
        the request it rode in on.
        """
        if not isinstance(raw, dict):
            return None
        trace_id = raw.get("trace_id")
        span_id = raw.get("span_id")
        if not (isinstance(trace_id, str) and trace_id) or not (
            isinstance(span_id, str) and span_id
        ):
            return None
        return cls(trace_id=trace_id, span_id=span_id)


class Span:
    """One timed operation in a trace (also its own context manager).

    Attributes are free-form JSON-native values; events are timestamped
    point-in-time markers (retries, breaker transitions, sheds) that
    belong to a span without deserving one of their own.

    The serving hot path opens ~13 spans per fan-out request, so
    creation and finish are kept to the bare minimum: one clock read per
    edge, a parent held by *reference* (``span_id`` strings are
    allocated lazily — most spans only ever need one at assembly), and a
    direct reference to the owning trace's span bucket so a non-root
    finish is a plain list append with no lock and no dict lookup.
    """

    __slots__ = (
        "tracer",
        "trace_id",
        "parent",
        "name",
        "pid",
        "attributes",
        "events",
        "start_perf",
        "wall_ms",
        "root",
        "bucket",
        "_span_id",
        "_token",
        "_finished",
    )

    recording = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: dict[str, Any] | None,
        trace_id: str,
        parent: "Span | str | None",
        root: bool,
        bucket: list[Any],
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.parent = parent
        self.name = name
        self.pid = _PID
        # Both maps are lazy (None until first write): most spans carry a
        # couple of attributes at most and no events, and surviving
        # allocations are what drive gc pressure on the serving hot path.
        self.attributes: dict[str, Any] | None = attributes
        self.events: list[dict[str, Any]] | None = None
        self.root = root
        self.bucket = bucket
        self._span_id: str | None = None
        self._token = None
        self._finished = False
        self.wall_ms = 0.0
        self.start_perf = time.perf_counter()

    @property
    def span_id(self) -> str:
        """This span's id, allocated on first use."""
        span_id = self._span_id
        if span_id is None:
            span_id = self._span_id = _new_id()
        return span_id

    @property
    def parent_id(self) -> str | None:
        """The parent span's id (local parent, remote context, or none)."""
        parent = self.parent
        if parent is None:
            return None
        if isinstance(parent, str):
            return parent
        return parent.span_id

    @property
    def start_unix_s(self) -> float:
        return _UNIX_ANCHOR + self.start_perf

    def context(self) -> TraceContext:
        """This span's identity as a propagatable :class:`TraceContext`."""
        return TraceContext(self.trace_id, self.span_id)

    def set_attribute(self, key: str, value: Any) -> None:
        attributes = self.attributes
        if attributes is None:
            self.attributes = {key: value}
        else:
            attributes[key] = value

    def add_event(self, name: str, **attributes: Any) -> None:
        events = self.events
        if events is None:
            events = self.events = []
        events.append(
            {
                "name": name,
                "at_ms": (time.perf_counter() - self.start_perf) * 1000.0,
                **attributes,
            }
        )

    def finish(self) -> None:
        """End the span (idempotent) and hand it to the tracer."""
        if self._finished:
            return
        self._finished = True
        self.wall_ms = (time.perf_counter() - self.start_perf) * 1000.0
        if self._token is not None:
            try:
                _CURRENT.reset(self._token)
            except ValueError:
                # Finished from a different context (e.g. a done-callback
                # thread); the activation simply expires with its context.
                pass
            self._token = None
        if not self.root:
            # Inlined Tracer._record fast path — one call fewer on the
            # per-span hot path.
            bucket = self.bucket
            if len(bucket) < self.tracer.max_spans:
                bucket.append(self)
            else:
                self.tracer._drop_overflow()
            return
        self.tracer._record(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if exc_info and exc_info[0] is not None:
            attributes = self.attributes
            if attributes is None:
                self.attributes = {"error": exc_info[0].__name__}
            else:
                attributes.setdefault("error", exc_info[0].__name__)
        self.finish()


class _NoopSpan:
    """The disarmed stand-in: every method is a no-op, shared singleton."""

    __slots__ = ()

    recording = False
    trace_id = ""
    span_id = ""

    def context(self) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def add_event(self, name: str, **attributes: Any) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NOOP = _NoopSpan()

# The current position in a trace: a live Span (local work), a
# TraceContext (remotely seeded, e.g. inside a subprocess worker or an
# HTTP handler relaying a client's context), the _SUPPRESSED sentinel
# (inside an unsampled request), or None (no trace).
_CURRENT: ContextVar[Any] = ContextVar("kg-trace-current", default=None)

# Sentinel pinned as the current context under an unsampled trace root:
# descendant hooks see it and return the shared no-op span after one
# ContextVar read, instead of each re-running the sampling decision (and
# each opening a fresh unsampled root).
_SUPPRESSED = object()


class _SuppressedSpan:
    """The root of an *unsampled* trace (``Tracer(sample_every=N)``).

    Behaves exactly like the no-op span — records nothing, carries no
    ids — but owns the context token that keeps :data:`_SUPPRESSED`
    current for the duration of the request, so the whole span tree
    below an unsampled root costs one ContextVar read per hook.
    """

    __slots__ = ("_token",)

    recording = False
    trace_id = ""
    span_id = ""

    def __init__(self, activate: bool) -> None:
        self._token = _CURRENT.set(_SUPPRESSED) if activate else None

    def context(self) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def add_event(self, name: str, **attributes: Any) -> None:
        pass

    def finish(self) -> None:
        token = self._token
        if token is not None:
            self._token = None
            try:
                _CURRENT.reset(token)
            except ValueError:
                pass

    def __enter__(self) -> "_SuppressedSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.finish()


class Tracer:
    """Collects finished spans into traces; bounded ring + slowest-N log.

    ``ring_capacity=0`` makes a pure *collector*: spans accumulate and
    :meth:`drain` hands them off — the mode subprocess workers use to
    ship their spans back to the parent's tracer.
    """

    def __init__(
        self,
        *,
        ring_capacity: int = 128,
        slow_capacity: int = 16,
        max_live: int = 256,
        max_spans: int = 512,
        sample_every: int = 1,
    ) -> None:
        self.ring_capacity = ring_capacity
        self.slow_capacity = slow_capacity
        self.max_live = max_live
        self.max_spans = max_spans
        # Head sampling: trace every Nth *locally rooted* request (a
        # deterministic counter, not a coin flip).  1 = trace everything
        # (the default — tests, smokes and /debug/traces-focused debug
        # sessions want every request).  Remotely seeded work (a
        # TraceContext parent) always records: the upstream tracer made
        # the sampling decision when it opened the trace.
        self.sample_every = max(1, int(sample_every))
        self._sample_seq = itertools.count()
        self._lock = threading.Lock()
        self._live: dict[str, list[Any]] = {}
        self._recent: deque[dict[str, Any]] = deque(maxlen=max(ring_capacity, 1))
        self._slow: list[tuple[float, int, dict[str, Any]]] = []
        self._seq = itertools.count()
        self.spans_started = 0
        # Finished-span accounting is tallied when a bucket leaves the
        # live table (completion, eviction, drain) — a non-root finish
        # is lock-free, so it cannot touch a shared counter.  The
        # ``spans_finished`` property folds in the still-live buckets.
        self._finished_tally = 0
        self.spans_adopted = 0
        self.spans_dropped = 0
        self.traces_completed = 0
        self.traces_dropped = 0
        self.traces_sampled_out = 0

    # -- span lifecycle ----------------------------------------------------

    def start_span(
        self,
        name: str,
        attributes: dict[str, Any] | None = None,
        *,
        parent: TraceContext | Span | None = None,
        activate: bool = True,
    ) -> "Span | _NoopSpan | _SuppressedSpan":
        """Open a span under ``parent`` (default: the current context).

        ``activate=False`` opens the span without making it the current
        context — fan-out code activates it piecewise with :func:`using`
        around each submit/resolve window instead.

        With ``sample_every > 1`` a would-be root may instead come back
        as a suppressed (non-recording) span; everything opened beneath
        it is the shared no-op span.  All variants honour the same span
        interface, so call sites never branch on the sampling decision.
        """
        if parent is None:
            parent = _CURRENT.get()
        if type(parent) is Span:
            # The common case — a child of a live local span shares its
            # trace id and bucket by reference; no lock, no id strings.
            self.spans_started += 1
            span_obj = Span(
                self, name, attributes, parent.trace_id, parent, False, parent.bucket
            )
        elif parent is None:
            if self.sample_every > 1 and next(self._sample_seq) % self.sample_every:
                with self._lock:
                    self.traces_sampled_out += 1
                return _SuppressedSpan(activate)
            self.spans_started += 1
            trace_id = _new_id()
            span_obj = Span(
                self, name, attributes, trace_id, None, True,
                self._bucket_for(trace_id),
            )
        elif parent is _SUPPRESSED:
            # Inside an unsampled root: the whole subtree is no-op.
            return _NOOP
        else:  # a remote TraceContext (seeded worker / relayed client)
            self.spans_started += 1
            span_obj = Span(
                self, name, attributes, parent.trace_id, parent.span_id, False,
                self._bucket_for(parent.trace_id),
            )
        if activate:
            span_obj._token = _CURRENT.set(span_obj)
        return span_obj

    def _bucket_for(self, trace_id: str) -> list[Any]:
        """Get or create the live span bucket for ``trace_id`` (locked)."""
        with self._lock:
            bucket = self._live.get(trace_id)
            if bucket is None:
                if len(self._live) >= self.max_live:
                    # Evict the oldest live trace wholesale (dict order =
                    # insertion order): abandoned roots must not leak.
                    oldest = next(iter(self._live))
                    self._tally_locked(self._live.pop(oldest))
                    self.traces_dropped += 1
                bucket = self._live[trace_id] = []
            return bucket

    def _tally_locked(self, bucket: list[Any]) -> None:
        """Count a bucket's locally-finished spans as it leaves the table."""
        self._finished_tally += sum(
            1 for entry in bucket if not isinstance(entry, dict)
        )

    def _drop_overflow(self) -> None:
        """Count a span dropped by the per-trace ``max_spans`` cap."""
        with self._lock:
            self.spans_dropped += 1

    def _record(self, span_obj: Span) -> None:
        if not span_obj.root:
            # Finished non-root spans append straight to their trace's
            # bucket — list.append is atomic under the GIL, and the
            # bucket reference was pinned at start, so no lock and no
            # dict lookup (this path is inlined in Span.finish; kept
            # here for direct callers).  A straggler appending after its
            # root completed lands in the (already published) bucket and
            # is picked up by lazy assembly if the trace has not been
            # read yet, silently retired otherwise.
            bucket = span_obj.bucket
            if len(bucket) < self.max_spans:
                bucket.append(span_obj)
            else:
                self._drop_overflow()
            return
        with self._lock:
            bucket = self._live.pop(span_obj.trace_id, None)
            if bucket is None:
                # The trace was evicted while its root was still running;
                # count the root and drop the completion.
                self._finished_tally += 1
                return
            if len(bucket) < self.max_spans:
                bucket.append(span_obj)
            else:
                self.spans_dropped += 1
            self._tally_locked(bucket)
            if self.ring_capacity > 0:
                # Completion on the hot path is one deque append plus a
                # bounded heap push; the expensive part of assembly
                # (record conversion, exclusive times, sorting) is
                # deferred to the read side — see _assemble_locked.
                trace: dict[str, Any] = {
                    "trace_id": span_obj.trace_id,
                    "root": span_obj.name,
                    "duration_ms": span_obj.wall_ms,
                    "_spans": bucket,
                }
                self.traces_completed += 1
                self._recent.append(trace)
                heapq.heappush(
                    self._slow, (span_obj.wall_ms, next(self._seq), trace)
                )
                if len(self._slow) > self.slow_capacity:
                    heapq.heappop(self._slow)

    def adopt(self, records: list[dict[str, Any]]) -> None:
        """Fold spans drained from another process into their live traces.

        Records arriving after their trace completed (a straggler worker
        resolving past the root's finish) are dropped and counted — the
        assembled trace is immutable once published.
        """
        with self._lock:
            for record in records:
                trace_id = record.get("trace_id", "")
                bucket = self._live.get(trace_id)
                if bucket is None:
                    if self._completed_locked(trace_id):
                        self.spans_dropped += 1
                        continue
                    # The trace is in flight but none of its local spans
                    # have finished yet (a worker resolving before the
                    # first stage span closes) — open its bucket now.
                    if len(self._live) >= self.max_live:
                        oldest = next(iter(self._live))
                        self._tally_locked(self._live.pop(oldest))
                        self.traces_dropped += 1
                    bucket = self._live[trace_id] = []
                if len(bucket) >= self.max_spans:
                    self.spans_dropped += 1
                    continue
                bucket.append(record)
                self.spans_adopted += 1

    def _completed_locked(self, trace_id: str) -> bool:
        """Whether ``trace_id`` already assembled (caller holds the lock)."""
        return any(
            trace["trace_id"] == trace_id for trace in self._recent
        ) or any(trace["trace_id"] == trace_id for _, _, trace in self._slow)

    def drain(self) -> list[dict[str, Any]]:
        """All buffered spans as picklable dicts (collector mode), cleared."""
        with self._lock:
            live, self._live = self._live, {}
            for spans in live.values():
                self._tally_locked(spans)
        out: list[dict[str, Any]] = []
        for spans in live.values():
            for span_obj in spans:
                out.append(_as_record(span_obj))
        return out

    # -- trace assembly ----------------------------------------------------

    def _assemble_locked(self, trace: dict[str, Any]) -> dict[str, Any]:
        """Finish a lazily-completed trace in place (idempotent).

        Assembly mutates the dict the ring and heap both reference, so a
        trace is assembled at most once no matter which read path reaches
        it first.
        """
        spans = trace.pop("_spans", None)
        if spans is None:
            return trace
        records = [_as_record(span_obj) for span_obj in spans]
        child_wall: dict[str, float] = {}
        for record in records:
            parent_id = record["parent_id"]
            if parent_id is not None:
                child_wall[parent_id] = child_wall.get(parent_id, 0.0) + record["wall_ms"]
        start = min(record["start_unix_s"] for record in records)
        for record in records:
            record["start_ms"] = (record.pop("start_unix_s") - start) * 1000.0
            record["exclusive_ms"] = max(
                0.0, record["wall_ms"] - child_wall.get(record["span_id"], 0.0)
            )
        records.sort(key=lambda record: record["start_ms"])
        trace["start_unix_s"] = start
        trace["span_count"] = len(records)
        trace["spans"] = records
        return trace

    # -- read side ---------------------------------------------------------

    def recent(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Most recently completed traces, newest first."""
        with self._lock:
            traces = [self._assemble_locked(trace) for trace in self._recent]
        traces.reverse()
        return traces if limit is None else traces[:limit]

    def slowest(self, limit: int | None = None) -> list[dict[str, Any]]:
        """The slow-query log: slowest completed traces, slowest first."""
        with self._lock:
            entries = sorted(self._slow, key=lambda entry: -entry[0])
            traces = [self._assemble_locked(trace) for _, _, trace in entries]
        return traces if limit is None else traces[:limit]

    def find(self, trace_id: str) -> dict[str, Any] | None:
        """A completed trace by id (recent ring + slow log), or ``None``."""
        with self._lock:
            for trace in self._recent:
                if trace["trace_id"] == trace_id:
                    return self._assemble_locked(trace)
            for _, _, trace in self._slow:
                if trace["trace_id"] == trace_id:
                    return self._assemble_locked(trace)
        return None

    @property
    def spans_finished(self) -> int:
        """Locally finished spans: the exit tally plus still-live buckets."""
        with self._lock:
            return self._spans_finished_locked()

    def _spans_finished_locked(self) -> int:
        live = sum(
            1
            for bucket in self._live.values()
            for entry in bucket
            if not isinstance(entry, dict)
        )
        return self._finished_tally + live

    def counters(self) -> dict[str, int]:
        """Flat tracer-health counters for stats surfaces."""
        with self._lock:
            return {
                "spans_started": self.spans_started,
                "spans_finished": self._spans_finished_locked(),
                "spans_adopted": self.spans_adopted,
                "spans_dropped": self.spans_dropped,
                "traces_completed": self.traces_completed,
                "traces_dropped": self.traces_dropped,
                "traces_sampled_out": self.traces_sampled_out,
                "traces_live": len(self._live),
            }


def _as_record(span_obj: Any) -> dict[str, Any]:
    """A span (live object or adopted dict) as a plain record dict."""
    if isinstance(span_obj, dict):
        return span_obj
    return {
        "trace_id": span_obj.trace_id,
        "span_id": span_obj.span_id,
        "parent_id": span_obj.parent_id,
        "name": span_obj.name,
        "pid": span_obj.pid,
        "start_unix_s": span_obj.start_unix_s,
        "wall_ms": span_obj.wall_ms,
        "attributes": span_obj.attributes or {},
        "events": span_obj.events or [],
    }


# -- the global arming point ---------------------------------------------------
#
# Same discipline as faults._ACTIVE: one process-wide tracer, and every
# hook below starts with a single global None check so the disarmed
# serving hot path pays (nearly) nothing.

_ACTIVE: Tracer | None = None


def arm(tracer: Tracer) -> Tracer:
    """Install ``tracer`` process-wide (returns it for chaining)."""
    global _ACTIVE
    _ACTIVE = tracer
    return tracer


def disarm() -> None:
    """Deactivate tracing (the hooks go back to one ``None`` check)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Tracer | None:
    """The armed tracer, or ``None``."""
    return _ACTIVE


@contextmanager
def armed(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Arm a tracer for a ``with`` block, restoring the previous one after."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer = tracer if tracer is not None else Tracer()
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def span(name: str, **attributes: Any) -> Span | _NoopSpan:
    """Open (and activate) a span under the current context.

    Disarmed this is one ``None`` check returning a shared no-op span,
    so call sites can always write ``with tracing.span(...) as sp:`` and
    call ``sp.set_attribute`` unconditionally.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP
    parent = _CURRENT.get()
    if type(parent) is Span:
        # Inlined child-of-local-span fast path (mirrors start_span):
        # the serving hot path opens ~13 spans per request through this
        # function, so one call frame fewer is measurable.
        tracer.spans_started += 1
        span_obj = Span(
            tracer, name, attributes or None, parent.trace_id, parent,
            False, parent.bucket,
        )
        span_obj._token = _CURRENT.set(span_obj)
        return span_obj
    return tracer.start_span(name, attributes or None, parent=parent)


def event(name: str, **attributes: Any) -> None:
    """Attach a point-in-time event to the current span, if any."""
    if _ACTIVE is None:
        return
    current = _CURRENT.get()
    if isinstance(current, Span):
        current.add_event(name, **attributes)


def current_span() -> Span | None:
    """The active local span, or ``None``."""
    if _ACTIVE is None:
        return None
    current = _CURRENT.get()
    return current if isinstance(current, Span) else None


def current_context() -> TraceContext | None:
    """The propagatable identity of the current position, or ``None``.

    This is the cross-boundary hook: the pool dispatch pickles it to
    subprocess workers, the wire codec embeds it in request envelopes.
    """
    if _ACTIVE is None:
        return None
    current = _CURRENT.get()
    if current is None or current is _SUPPRESSED:
        return None
    if isinstance(current, TraceContext):
        return current
    return TraceContext(current.trace_id, current.span_id)


class seeded:
    """Make ``context`` the current trace position for a ``with`` block.

    Used where a trace *enters* a process: subprocess workers seeding
    the shipped parent context, and the HTTP server relaying a client
    envelope's ``trace`` field.
    """

    __slots__ = ("_context", "_token")

    def __init__(self, context: TraceContext | None) -> None:
        self._context = context
        self._token = None

    def __enter__(self) -> None:
        if self._context is not None:
            self._token = _CURRENT.set(self._context)
        return None

    def __exit__(self, *exc_info: Any) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None


class using:
    """Temporarily activate an ``activate=False`` span as the current one.

    The fan-out pattern: one shard span is activated around its submit
    window and again around its resolve window, so worker spans and
    retry events parent under the right shard without the shard spans
    nesting into each other.  The same holds for a ``serve.request``
    span the gateway opens on its event loop and an executor thread
    continues (``ServingService.probe``/``serve``).

    Class-based rather than ``@contextmanager``: it brackets every
    shard's submit and resolve windows on the serving hot path, and a
    generator context manager costs several times a plain
    ``__enter__``/``__exit__`` pair.
    """

    __slots__ = ("_span", "_token")

    def __init__(self, span_obj: Span | _NoopSpan | None) -> None:
        self._span = span_obj
        self._token = None

    def __enter__(self) -> Any:
        span_obj = self._span
        if span_obj is not None:
            if span_obj.recording:
                self._token = _CURRENT.set(span_obj)
            elif type(span_obj) is _SuppressedSpan:
                # An unsampled root keeps its whole subtree no-op.
                self._token = _CURRENT.set(_SUPPRESSED)
        return span_obj

    def __exit__(self, *exc_info: Any) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
