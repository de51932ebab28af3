"""The serving facade: one front door over router, pool, batcher and cache.

This is the subsystem that turns the repo from a library into a service
(§4–5 of the paper: serving the grown KG to production traffic).  Every
knowledge service — graph queries, entity linking, fact ranking and
verification, similarity and k-NN — lands in one uniform dispatch::

    response = service.serve(request)   # any Request -> Response

Scatter/gather, micro-batching and the versioned :class:`QueryCache` are
*per-family policies* (declared once per request type in its
:class:`~repro.serving.requests.RequestFamily` record) instead of
per-method code:

* ``splittable`` requests scatter over the :class:`ShardRouter`, fan out
  across the :class:`WorkerPool` and gather back in request order;
* ``micro_batched`` single-text annotation rides the :class:`MicroBatcher`
  (cross-client coalescing), multi-text batches chunk straight onto the
  pool;
* ``cacheable`` gates admission to the ``(store_version, request)``
  LRU — never-repeating requests (multi-text annotation) skip it.

Failures never leak tracebacks into the envelope: :meth:`serve` returns a
structured error response (the original exception rides along in-process
only, so ``Response.result()`` can re-raise it).  Every request
lands in per-type counters and bounded latency histograms surfaced by
:meth:`stats`.

Graceful degradation (``resilient=True``, the default): a splittable
request fans out as one part per worker, and each part waits through
the pool's one retry loop (:meth:`WorkerPool.resolve`: crashes,
transient errors and truncated results retry on a healthy replica).  A
part that stays down past its budget *degrades* the response instead of
failing it — the envelope comes back ``status="degraded"`` with the
healthy parts' results in place, ``None`` holes for the failed
entities, and the underlying error attached.  A fully-failed cacheable
request falls back to the newest previous-generation answer
(serve-stale-on-error, :meth:`QueryCache.get_stale`) before surfacing an
error.  The pool's circuit breaker fails a persistently failing fleet
fast; :meth:`health` reports it with the fleet state for ``/healthz``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterator

from repro.annotation.mention import EntityLink
from repro.common import tracing
from repro.common.metrics import MetricsRegistry, render_prometheus
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import QueryCache
from repro.serving.protocol import ProtocolError, error_response
from repro.serving.requests import (
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ERROR_UNAVAILABLE,
    ERROR_UNSUPPORTED_TYPE,
    STATUS_DEGRADED,
    STATUS_OK,
    TENANT_READ,
    TENANT_WRITE,
    AnnotateRequest,
    ErrorInfo,
    Request,
    RequestFamily,
    Response,
    family_of,
)
from repro.serving.resilience import OPEN, RetryPolicy, error_fields
from repro.serving.router import ShardRouter
from repro.serving.tenancy import TenantNotFound, TenantRegistry, TenantState
from repro.serving.worker import WORKER_MODES, WorkerConfig, WorkerPool

FULL_TIER = "full"

# The scope of every request that holds no tenant lease.
_NO_LEASE = nullcontext(None)


class PartialResultError(Exception):
    """Some parts failed past their retry budget; the rest answered.

    Raised by the scatter/gather path and caught by :meth:`serve`, which
    turns it into a ``degraded`` envelope: ``payload`` holds the merged
    results with ``None`` holes at the failed entities' positions, and
    ``cause`` is the first failed part's terminal exception.
    """

    def __init__(
        self,
        payload: list,
        failed_positions: list[int],
        cause: BaseException,
        attempts: int,
    ) -> None:
        super().__init__(
            f"{len(failed_positions)} of {len(payload)} entities unavailable: "
            f"{type(cause).__name__}: {cause}"
        )
        self.payload = payload
        self.failed_positions = failed_positions
        self.cause = cause
        self.attempts = attempts


class Probe:
    """One request as :meth:`ServingService.probe` first saw it.

    Holds the generation the request is served under (``epoch``,
    ``pool``, ``router``, ``version``), its ``timings`` so far, its
    ``serve.request`` span (``None`` disarmed) and ``response``: the
    finished envelope when the probe alone answered (a cache hit, an
    unsupported type), else ``None`` until :meth:`ServingService.serve`
    answers it.
    """

    __slots__ = (
        "family", "span", "started", "timings", "cacheable", "response",
        "epoch", "pool", "router", "version",
    )

    def __init__(self, family: RequestFamily | None, span) -> None:
        self.family = family
        self.span = span
        self.started = time.perf_counter()
        self.timings: dict[str, float] = {}
        self.cacheable = False
        self.response: Response | None = None


class ServingService:
    """Fanned-out, batched, cached KG serving over one snapshot bundle."""

    def __init__(
        self,
        bundle_dir: str | Path,
        *,
        mode: str = "inline",
        num_workers: int = 1,
        tier: str = FULL_TIER,
        cache_capacity: int = 2048,
        batch_max_docs: int = 16,
        batch_max_delay_s: float = 0.005,
        worker_config: WorkerConfig | None = None,
        metrics: MetricsRegistry | None = None,
        resilient: bool = True,
        retry_policy: RetryPolicy | None = None,
        stale_capacity: int = 256,
        tenants_dir: str | Path | None = None,
        max_resident_tenants: int = 32,
    ) -> None:
        if mode not in WORKER_MODES:
            raise ValueError(f"mode must be one of {WORKER_MODES}, got {mode!r}")
        self.tier = tier
        self.metrics = metrics or MetricsRegistry("serving")
        # resilient=False is the bare dispatch: no retries, no degradation,
        # no stale fallback — the control arm the overhead benchmark
        # measures the resilience layer's fault-free cost against.
        self.resilient = resilient
        self.retry_policy = retry_policy or (
            RetryPolicy() if resilient else RetryPolicy(max_attempts=1)
        )
        self._cache = QueryCache(
            cache_capacity,
            metrics=self.metrics,
            stale_capacity=stale_capacity if resilient else 0,
        )
        self._pool: WorkerPool | None = None
        self._router: ShardRouter | None = None
        # Bumped on every generation swap; serve() captures it up front
        # and skips its cache write when a swap happened mid-request, so
        # a result whose batched sub-work may have computed on the new
        # fleet is never cached under the old version (see _adopt).
        self._swap_epoch = 0
        self._worker_config = worker_config
        self._mode = mode
        self._num_workers = num_workers
        self._batcher = MicroBatcher(
            self._annotate_flush,
            max_batch=batch_max_docs,
            max_delay_s=batch_max_delay_s,
            metrics=self.metrics,
        )
        # Multi-tenant overlays: opt-in via tenants_dir.  The registry
        # shares this service's metrics registry; each tenant read views
        # its overlay through the CSR of the generation it captured.
        self._tenants: TenantRegistry | None = (
            TenantRegistry(
                tenants_dir,
                max_resident=max_resident_tenants,
                metrics=self.metrics,
            )
            if tenants_dir is not None
            else None
        )
        self._adopt(Path(bundle_dir))

    # -- lifecycle -----------------------------------------------------------

    def _adopt(self, bundle_dir: Path) -> None:
        pool = WorkerPool(
            bundle_dir,
            num_workers=self._num_workers,
            mode=self._mode,
            config=self._worker_config,
            metrics=self.metrics,
            retry_policy=self.retry_policy,
        )
        previous, self._pool = self._pool, pool
        self._swap_epoch += 1
        # One part per worker: a splittable request costs each worker at
        # most one message, whatever its entity count.
        dictionary = pool.local_state.dictionary
        self._router = ShardRouter(
            pool.num_workers,
            id_of=dictionary.get if dictionary is not None else None,
        )
        if previous is not None:
            previous.close()
        if self._tenants is not None:
            self._tenants.drop_overlays()
        # Structural invalidation: entries from other generations are
        # unreachable by key, and adopt_version frees their memory now.
        dropped = self._cache.adopt_version(pool.store_version)
        self.metrics.incr("serve.generations")
        self.metrics.gauge("serve.store_version", float(pool.store_version))
        if dropped:
            self.metrics.incr("serve.generation_invalidated", dropped)

    def adopt_generation(self, bundle_dir: str | Path) -> int:
        """Swap the fleet onto a new snapshot bundle.

        Workers for the new generation spin up first, the old pool shuts
        down after, and the query cache drops every entry whose
        ``store_version`` is not the new bundle's.  Returns the adopted
        ``store_version``.

        Requests racing the swap stay generation-consistent: each request
        captures one (version, pool, router) triple up front, so its
        results and cache writes all belong to a single generation — a
        result computed on the old fleet can never be cached under the
        new version.  A request that loses the race outright may fail
        with ``RuntimeError`` when the old pool shuts down under it;
        callers retry against the new generation.
        """
        self._batcher.flush()
        self._adopt(Path(bundle_dir))
        return self.store_version

    @property
    def store_version(self) -> int:
        """The snapshot generation currently served."""
        assert self._pool is not None
        return self._pool.store_version

    def close(self) -> None:
        """Drain pending annotation work and stop the workers."""
        self._batcher.flush()
        if self._tenants is not None:
            self._tenants.close()
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ServingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the uniform dispatch --------------------------------------------------

    def serve(
        self,
        request: Request,
        *,
        tenant: str | None = None,
        probe: Probe | None = None,
        _swap_retries: int = 2,
    ) -> Response:
        """Answer any request with a response envelope.

        The single entry point every transport calls (in-process callers,
        the asyncio gateway, the HTTP front door).  Never raises for
        request-level failures — the envelope carries a structured error
        instead (with the original exception attached in-process for
        :meth:`Response.result` to re-raise).

        ``tenant`` scopes the request to one tenant's overlay graph:
        walks and neighborhoods answer over shared + personal facts, and
        the tenant write/sync family applies to that tenant's durable
        store.  Tenant work never reaches the shared worker fleet — it
        runs against the :class:`TenantRegistry` in this process
        (isolation is enforced at dispatch, and again by the workers,
        which reject the write family outright).  Tenant reads share the
        shared reads' pipeline: cached per ``(tenant, tenant_version)``,
        swap-retried and served stale on error from the same tenant
        version only.  Circuit breakers guard the pool, so they never
        apply to tenant work.

        ``probe`` is the request's :meth:`probe`, when the caller already
        took one (the gateway does, on its event loop): the request is
        then neither counted nor probed again.  A missed probe is pinned
        afresh to the current generation and its clock restarted here, so
        a generation swap while it queued for an executor slot costs no
        swap retry and ``total_ms`` is time inside the service on every
        path.  (Its ``serve.request`` span still opens at the probe,
        which its ``serve.cache`` child belongs to.)

        Generation swaps drop zero reads: a read whose captured pool was
        shut down mid-flight by ``adopt_generation`` re-dispatches against
        the new generation in the same tenant scope (``_swap_retries``
        bounds pathological back-to-back swaps) instead of surfacing the
        race as an error.

        Under an armed tracer the whole dispatch (including swap
        retries) runs inside one ``serve.request`` span, opened by
        :meth:`probe`, and the envelope carries the trace id; disarmed,
        each hook costs one ``None`` check.
        """
        if probe is None:
            probe = self.probe(request, tenant)
        elif probe.response is None:
            self._capture(probe)
            probe.started = time.perf_counter()
        if probe.response is None:
            with tracing.using(probe.span):
                probe.response = self._serve_impl(request, tenant, _swap_retries, probe)
            self._finish(probe, tenant)
        return probe.response

    def probe(self, request: Request, tenant: str | None = None) -> Probe:
        """Open ``request``: count it, capture the generation it is served
        under and, in the shared scope, probe the query cache.

        This is the request path's one cache probe.  :meth:`serve` calls
        it, and so does the gateway on its event loop: a hit comes back
        finished (``probe.response`` is set, counted and its span closed)
        and costs no executor thread; a miss comes back with ``response``
        ``None`` and goes on to :meth:`serve`.  A tenant scope is probed
        later, under the tenant's lease (:meth:`_serve_impl`).
        """
        type_name = type(request).__name__
        self.metrics.incr("serve.requests")
        self.metrics.incr(f"serve.requests.{type_name}")
        tracer = tracing.active()
        span = (
            None
            if tracer is None
            else tracer.start_span(
                "serve.request", {"request_type": type_name}, activate=False
            )
        )
        probe = Probe(family_of(request), span)
        self._capture(probe)
        if probe.family is None:
            probe.response = self._fail(
                probe, request, ERROR_UNSUPPORTED_TYPE,
                f"unsupported request type: {type_name}",
            )
        elif tenant is None:
            # A hostile in-process request object (mistyped fields that
            # defeat hashing) must come back as an envelope, not raise.
            try:
                with tracing.using(span):
                    probe.response = self._lookup(probe, request, None)
            except Exception as exc:
                probe.response = self._fail(
                    probe, request, ERROR_INTERNAL, f"{type(exc).__name__}: {exc}", exc
                )
        if probe.response is not None:
            self._finish(probe, tenant)
        return probe

    def _capture(self, probe: Probe) -> None:
        """Pin ``probe`` to the current generation: the envelope's
        store_version, the pool and router computing shared work and the
        CSR a tenant overlay is read through all belong to it."""
        probe.epoch = self._swap_epoch
        probe.pool, probe.router = self._pool, self._router
        assert probe.pool is not None and probe.router is not None
        probe.version = probe.pool.store_version

    def _lookup(self, probe: Probe, request: Request, scope) -> Response | None:
        """Family admission and the ``QueryCache`` lookup; a hit's envelope
        (carrying its cache entry, for the codec's payload splice) or
        ``None``."""
        probe.cacheable = probe.family.cacheable(request)
        if not probe.cacheable:
            return None
        with _stage(probe.timings, "cache_ms", "serve.cache") as cache_span:
            entry = self._cache.get(probe.version, request, scope)
            cache_span.set_attribute("hit", entry is not None)
        if entry is None:
            return None
        return _envelope(
            probe.family, probe.version, probe.started, probe.timings, STATUS_OK,
            entry.payload, cached=True, cache_entry=entry,
        )

    def _finish(self, probe: Probe, tenant: str | None) -> None:
        """Count the final status and close the ``serve.request`` span."""
        response = probe.response
        self.metrics.incr(f"serve.status.{response.status}")
        span = probe.span
        if span is not None:
            span.set_attribute("status", response.status)
            span.set_attribute("cached", response.cached)
            if tenant is not None:
                span.set_attribute("tenant", tenant)
            if span.recording:
                response.trace_id = span.trace_id
            span.finish()

    def abandon(self, probe: Probe, request: Request) -> None:
        """Finish a missed ``probe`` that will never reach :meth:`serve`
        (its caller was cancelled, or its executor closed, before the
        request was handed over): answer it ``unavailable``, count it and
        close its span, so every counted request has a final status."""
        probe.response = self._fail(
            probe, request, ERROR_UNAVAILABLE, "request abandoned before execution"
        )
        self._finish(probe, None)

    def _fail(
        self,
        probe: Probe,
        request: Request,
        code: str,
        message: str,
        exception: BaseException | None = None,
    ) -> Response:
        type_name = type(request).__name__
        self.metrics.incr("serve.errors")
        self.metrics.incr(f"serve.errors.{type_name}")
        probe.timings["total_ms"] = _ms_since(probe.started)
        return error_response(
            getattr(type(request), "wire_type", "unknown"), probe.version, code,
            message, timings=probe.timings, exception=exception,
        )

    def _serve_impl(
        self, request: Request, tenant: str | None, swap_retries: int, probe: Probe
    ) -> Response:
        """The one request pipeline past the probe: resolve tenancy scope
        (and probe a tenant's cache under its lease) -> execute -> write
        cache -> envelope, with failures classified into swap retries,
        degraded (partial or stale) or error envelopes.  A tenant scope
        adds ``(tenant, tenant_version)`` to the cache key and runs the
        work in-process (see :meth:`_execute`).
        """
        family = probe.family
        pool, router, version = probe.pool, probe.router, probe.version
        timings = probe.timings
        type_name = type(request).__name__
        resilience: dict[str, float] = {}
        scope = None
        # Everything sits under one except: even a hostile request object
        # (mistyped fields that defeat hashing in the cache probe — the
        # wire codec rejects those, but serve() is also a public
        # in-process API) must come back as an envelope.
        try:
            with self._lease(family, tenant) as state:
                if state is not None:
                    scope = (tenant, state.version)
                    cached = self._lookup(probe, request, scope)
                    if cached is not None:
                        return cached
                with self.metrics.hist_timed("serve.latency"), self.metrics.hist_timed(
                    f"serve.latency.{type_name}"
                ):
                    payload = self._execute(
                        request, family, tenant, state, pool, router, timings, resilience
                    )
            if probe.cacheable:
                if probe.epoch == self._swap_epoch:
                    self._cache.put(version, request, payload, scope)
                else:
                    # A generation swap landed mid-request: parts of this
                    # result (e.g. a micro-batched annotate flush, which
                    # reads the live pool) may have computed on the new
                    # fleet.  Skipping the write is always safe; the cache
                    # itself also refuses cross-generation writes.
                    self.metrics.incr("serve.swap_races")
        except ProtocolError as exc:
            return self._fail(probe, request, exc.code, exc.message)
        except TenantNotFound as exc:
            return self._fail(probe, request, ERROR_BAD_REQUEST, str(exc), exc)
        except Exception as exc:
            if (
                pool is not self._pool
                and swap_retries > 0
                and family.tenant_role != TENANT_WRITE
            ):
                # The failure happened across a generation swap (the old
                # pool may have shut down under us): re-dispatch on the
                # new generation, in the same tenant scope, rather than
                # degrade a healthy fleet — zero dropped reads.  (Writes
                # never touch a generation.)
                self.metrics.incr("serve.swap_retries")
                self._capture(probe)
                return self._serve_impl(request, tenant, swap_retries - 1, probe)
            if isinstance(exc, PartialResultError):
                # Graceful degradation: the healthy parts' answers go out
                # with None holes at the failed entities, plus the terminal
                # error — a partial answer beats a 500 for a KG lookup.
                self.metrics.incr("serve.degraded")
                self.metrics.incr(f"serve.degraded.{type_name}")
                return _envelope(
                    family, version, probe.started, timings, STATUS_DEGRADED,
                    exc.payload,
                    error=_unavailable(exc.cause, str(exc)),
                    resilience={
                        **resilience,
                        "attempts": float(exc.attempts),
                        "failed_entities": float(len(exc.failed_positions)),
                    },
                    exception=exc.cause,
                )
            if self.resilient and probe.cacheable:
                # Serve-stale-on-error: fresh compute is gone past its
                # budget, but a previous generation answered this exact
                # request in this exact scope — degraded beats unavailable.
                stale = self._cache.get_stale(request, scope)
                if stale is not None:
                    stale_version, stale_payload = stale
                    self.metrics.incr("serve.stale_served")
                    return _envelope(
                        family, version, probe.started, timings, STATUS_DEGRADED,
                        stale_payload,
                        cached=True,
                        error=_unavailable(exc, f"{type(exc).__name__}: {exc}"),
                        resilience={
                            **resilience,
                            "stale": True,
                            "stale_version": float(stale_version),
                        },
                        exception=exc,
                    )
            return self._fail(
                probe, request, ERROR_INTERNAL, f"{type(exc).__name__}: {exc}", exc
            )
        return _envelope(
            family, version, probe.started, timings, STATUS_OK, payload,
            resilience=resilience,
        )

    def _lease(self, family: RequestFamily, tenant: str | None):
        """The tenancy scope of one request, as a context manager.

        Yields the leased :class:`TenantState` for a tenant read (pinned
        against eviction for the whole request) and ``None`` otherwise;
        raises :class:`ProtocolError` for a scope the family does not allow.
        """
        role = family.tenant_role
        if tenant is None and role != TENANT_WRITE:
            return _NO_LEASE
        registry = self._tenants
        if registry is None:
            raise ProtocolError(
                ERROR_UNAVAILABLE,
                "multi-tenant serving is not enabled (no tenants_dir configured)",
            )
        name = family.request_cls.__name__
        if tenant is None:
            raise ProtocolError(ERROR_BAD_REQUEST, f"{name} requires a tenant envelope field")
        if role == TENANT_WRITE:
            return _NO_LEASE
        if role != TENANT_READ:
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                f"{name} cannot be tenant-scoped "
                "(only walks and neighborhoods answer over overlays)",
            )
        return registry.lease(tenant)

    def _execute(
        self,
        request: Request,
        family: RequestFamily,
        tenant: str | None,
        state: TenantState | None,
        pool: WorkerPool,
        router: ShardRouter,
        timings: dict[str, float],
        resilience: dict[str, float],
    ) -> Any:
        """Compute one request's payload under its family's dispatch policy."""
        if tenant is not None:
            # Tenant work runs here, never on the shared fleet: a read on
            # the overlay viewed through the captured generation's CSR, a
            # write through the registry's durable write op.
            registry = self._tenants
            with _stage(timings, "compute_ms", "serve.tenant", tenant=tenant):
                if family.tenant_role == TENANT_WRITE:
                    return family.execute(registry, tenant, request)
                base = pool.local_state.engine.snapshot()
                return registry.execute_on(state.engine(base), request)
        if family.micro_batched:
            return self._execute_annotate(request, pool, timings)
        if family.splittable:
            return self._execute_split(request, pool, router, timings, resilience)
        with _stage(timings, "compute_ms", "serve.compute"):
            if self.resilient:
                payload, attempts = pool.run_resilient(request)
                if attempts > 1:
                    resilience["attempts"] = float(attempts)
            else:
                payload = pool.submit(request).result()
        return payload

    def _execute_split(
        self,
        request: Request,
        pool: WorkerPool,
        router: ShardRouter,
        timings: dict[str, float],
        resilience: dict[str, float],
    ) -> list:
        """Scatter a splittable request, one part per worker; gather in order.

        (version, pool, router) were captured by :meth:`probe`, so a
        generation swap mid-request can't split the fan-out across two
        snapshots or cache an old-fleet result under the new version.

        Every part is submitted before any is waited on.  ``resilient``
        only picks the wait: the pool's retry loop, where a part that
        stays down past the budget becomes ``None`` holes in a
        :class:`PartialResultError` (the degraded envelope), or the bare
        future, whose first failure fails the request.
        """
        with _stage(timings, "scatter_ms", "serve.scatter") as scatter_span:
            parts = router.scatter_request(request)
            scatter_span.set_attribute("shards", len(parts))
        self.metrics.incr("serve.shard_fanout", len(parts))
        tracer = tracing.active()
        answered: list[tuple[list[int], list]] = []
        failed: list[tuple[list[int], BaseException]] = []
        attempts = 0
        with _stage(timings, "compute_ms", "serve.compute"):
            pool.breaker.check()
            # Each part's span is activated only around its own submit and
            # wait, so worker spans and retry events parent under the
            # right part without the part spans nesting.
            spans = [
                tracer.start_span(
                    "serve.shard", {"entities": len(positions)}, activate=False
                )
                if tracer is not None
                else None
                for positions, _part in parts
            ]
            try:
                futures = []
                for (_positions, part), span in zip(parts, spans):
                    with tracing.using(span):
                        futures.append(pool.submit(part))
                for (positions, part), span, future in zip(parts, spans, futures):
                    try:
                        with tracing.using(span):
                            if self.resilient:
                                result, waited = pool.resolve(part, future)
                            else:
                                result, waited = future.result(), 1
                    except Exception as exc:
                        if span is not None:
                            span.set_attribute("error", type(exc).__name__)
                        if not self.resilient:
                            raise
                        failed.append((positions, exc))
                        continue
                    if span is not None:
                        span.set_attribute("attempts", waited)
                    attempts += waited
                    answered.append((positions, result))
            finally:
                for span in spans:
                    if span is not None:
                        span.finish()
        if attempts > len(answered):
            resilience["attempts"] = float(attempts)
        if not answered and failed:
            # Nothing answered: a plain error (serve() may still find a
            # stale previous-generation result for it).
            raise failed[0][1]
        holes = [(positions, [None] * len(positions)) for positions, _exc in failed]
        with _stage(timings, "gather_ms", "serve.gather"):
            merged = ShardRouter.gather(len(request.entities), answered + holes)
        if failed:
            failed_positions = sorted(p for positions, _ in failed for p in positions)
            raise PartialResultError(merged, failed_positions, failed[0][1], attempts)
        return merged

    def _execute_annotate(
        self, request: AnnotateRequest, pool: WorkerPool, timings: dict[str, float]
    ) -> list[list[EntityLink]]:
        """Annotation policy: batcher for one text, chunked fan-out for many.

        A lone text rides the micro-batcher — concurrent callers' texts
        coalesce into one cross-document scoring pass, and the calling
        thread drains the queue so it never waits on the delay threshold.
        Multi-text requests chunk at the micro-batch size and dispatch to
        the pool concurrently; each worker scores its chunk as one batch.
        Results come back in input order either way.
        """
        with _stage(
            timings, "compute_ms", "serve.compute", texts=len(request.texts)
        ):
            if not request.texts:
                return []
            if len(request.texts) == 1:
                if request.tier != self.tier:
                    # The micro-batcher coalesces at the service's default
                    # tier only; an off-tier single text dispatches direct
                    # so the requested tier is honoured (and cached under
                    # the right key).
                    return pool.run(request)
                future = self._batcher.submit(request.texts[0])
                self._batcher.flush()
                return [future.result()]
            size = self._batcher.max_batch
            texts = list(request.texts)
            chunks = [texts[start : start + size] for start in range(0, len(texts), size)]
            chunk_results = pool.map(
                [
                    AnnotateRequest(texts=tuple(chunk), tier=request.tier)
                    for chunk in chunks
                ]
            )
            return [links for chunk in chunk_results for links in chunk]

    def _annotate_flush(self, texts: list[str]) -> list[list[EntityLink]]:
        """MicroBatcher sink: one pooled cross-document annotation call."""
        pool = self._pool
        assert pool is not None
        return pool.run(AnnotateRequest(texts=tuple(texts), tier=self.tier))

    # -- observability ---------------------------------------------------------

    def health(self) -> dict[str, object]:
        """Liveness/readiness snapshot for the gateway's ``/healthz``.

        ``healthy`` goes false when the pool's circuit breaker is open —
        the fleet is failing and callers should route elsewhere — or
        when no worker is alive.
        """
        pool = self._pool
        assert pool is not None
        breaker = pool.breaker.state
        live = pool.live_workers()
        healthy = live > 0 and breaker != OPEN
        return {
            "healthy": healthy,
            "status": "ok" if healthy else "unhealthy",
            "store_version": self.store_version,
            "mode": pool.mode,
            "workers": pool.num_workers,
            "live_workers": live,
            "respawns": int(pool.stats().get("counter.pool.respawns", 0.0)),
            "breakers": {"pool": breaker},
        }

    def stats(self) -> dict[str, float | str]:
        """Requests, latency, hit rates and fleet shape, flattened.

        Per-request-type counters (``counter.serve.requests.<Type>``) and
        latency histograms (``hist.serve.latency.<Type>.p95_s``) ride the
        registry snapshot; ``serve.p95_s``/``serve.p50_s`` surface the
        overall request-path histogram directly.
        """
        out: dict[str, float | str] = dict(self.metrics.snapshot())
        assert self._pool is not None
        # Pool-computed gauges (live workers, respawns, breaker state) —
        # the raw counters already share this registry.
        out.update(
            (key, value)
            for key, value in self._pool.stats().items()
            if key.startswith("pool.")
        )
        latency = self.metrics.histograms.get("serve.latency")
        out["serve.p50_s"] = latency.quantile(0.50) if latency is not None else 0.0
        out["serve.p95_s"] = latency.quantile(0.95) if latency is not None else 0.0
        out.update(self._gauges())
        out["serve.mode"] = self._pool.mode
        out["serve.cache_hit_rate"] = self._cache.hit_rate
        if self._tenants is not None:
            out["serve.tenants_evictions"] = float(self._tenants.evictions)
        return out

    def _gauges(self) -> dict[str, float]:
        """Point-in-time state the registry does not hold (``/stats`` and
        ``/metrics`` both carry it)."""
        pool = self._pool
        assert pool is not None
        gauges = {
            "serve.store_version": float(pool.store_version),
            "serve.cache_entries": float(len(self._cache)),
            "serve.cache_hits": float(self._cache.hits),
            "serve.cache_misses": float(self._cache.misses),
            "serve.cache_evictions": float(self._cache.evictions),
            "serve.workers": float(pool.num_workers),
            "serve.batch_pending": float(self._batcher.pending),
        }
        if self._tenants is not None:
            gauges["serve.tenants_resident"] = float(self._tenants.resident_count())
        return gauges

    # Counter-key prefixes whose dynamic suffixes (request type names,
    # breaker edges) become one labeled Prometheus family each, instead of
    # minting a new metric name per suffix.
    PROMETHEUS_FAMILIES = {
        "serve.requests.": ("serve_requests_by_type", "type"),
        "serve.status.": ("serve_responses_by_status", "status"),
        "serve.errors.": ("serve_errors_by_type", "type"),
        "serve.degraded.": ("serve_degraded_by_type", "type"),
        "pool.requests.": ("pool_requests_by_type", "type"),
        "breaker.transitions.": ("breaker_transitions_by_edge", "edge"),
        # Per-request-family cache accounting (QueryCache.get/get_stale).
        "cache.hits.": ("cache_hits_by_type", "type"),
        "cache.misses.": ("cache_misses_by_type", "type"),
        "cache.stale_hits.": ("cache_stale_hits_by_type", "type"),
        "cache.stale_misses.": ("cache_stale_misses_by_type", "type"),
        # Tenant registry lifecycle + traffic counters.
        "tenants.": ("tenant_ops_by_kind", "kind"),
    }

    def prometheus_metrics(self) -> str:
        """This service's registry as Prometheus text exposition.

        The shared registry (serve/pool/cache/batcher/breaker counters
        and histograms) renders directly; point-in-time state the
        registry does not hold — cache occupancy and hit counts, fleet
        width, per-breaker state as one-hot series — rides along as
        extra gauges.  This is the body of the gateway's ``/metrics``.
        """
        assert self._pool is not None
        extra = self._gauges()
        extra["serve.live_workers"] = float(self._pool.live_workers())
        tracer = tracing.active()
        if tracer is not None:
            for key, value in tracer.counters().items():
                extra[f"tracing.{key}"] = float(value)
        body = render_prometheus(
            self.metrics,
            families=self.PROMETHEUS_FAMILIES,
            extra_gauges=extra,
        )
        # Breaker state is categorical; expose it one-hot, the idiomatic
        # Prometheus encoding for state machines.
        state = self._pool.breaker.state
        lines = ["# TYPE kg_breaker_state gauge"] + [
            f'kg_breaker_state{{breaker="pool",state="{candidate}"}} '
            f"{int(candidate == state)}"
            for candidate in ("closed", "open", "half_open")
        ]
        return body + "\n".join(lines) + "\n"


def _ms_since(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0


def _envelope(
    family: RequestFamily,
    version: int,
    started: float,
    timings: dict[str, float],
    status: str,
    payload,
    **fields,
) -> Response:
    """A family's answer envelope, stamped with its total time."""
    timings["total_ms"] = _ms_since(started)
    return Response(
        request_type=family.wire_type,
        status=status,
        store_version=version,
        payload=payload,
        timings=timings,
        **fields,
    )


def _unavailable(exc: BaseException, message: str) -> ErrorInfo:
    """The error a degraded envelope carries about what is missing."""
    retryable, exception_type = error_fields(exc)
    return ErrorInfo(
        code=ERROR_UNAVAILABLE,
        message=message,
        retryable=retryable,
        exception_type=exception_type,
    )


@contextmanager
def _stage(
    timings: dict[str, float], key: str, span_name: str, **attributes
) -> Iterator[object]:
    """One dispatch stage: a ``timings`` entry and (armed) a span, from
    the *same* measurement.

    The span's ``stage_ms`` attribute is set to the exact value written
    into ``timings[key]`` — not a second clock read — which is what makes
    trace/envelope reconciliation an equality, not an approximation.
    """
    span_obj = tracing.span(span_name, **attributes)
    started = time.perf_counter()
    try:
        yield span_obj
    finally:
        elapsed = _ms_since(started)
        timings[key] = elapsed
        span_obj.set_attribute("stage_ms", elapsed)
        span_obj.finish()
