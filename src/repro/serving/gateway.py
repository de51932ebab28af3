"""Asyncio gateway: the network front door of the serving platform.

The PR-4 :class:`~repro.serving.service.ServingService` is synchronous —
futures already flow through the worker pool, only the facade blocks.
This module bridges that facade to ``asyncio`` and puts a real network
service in front of it, with the admission machinery a low-latency API
needs under heavy traffic (§4: one serving platform powering every
knowledge-based service):

* **bounded admission** — at most ``max_pending`` requests may be in the
  gateway at once; request ``max_pending + 1`` is *rejected immediately*
  with an ``overloaded`` error envelope instead of queueing without
  bound (backpressure the client can see and retry against);
* **cache hits on the event loop** — after the fault point, the reject
  check and the shed check, a shared-scope request is probed against
  the query cache right on the loop (:meth:`ServingService.probe`).  A
  hit is answered there, with no executor slot and no thread hand-off;
  a miss carries its probe on to the executor, so it is probed and
  counted once (one cancelled before it reaches a thread is finished
  ``unavailable`` by :meth:`ServingService.abandon`).  Tenant-scoped
  requests and non-cacheable families always take the executor;
* **concurrency cap** — of the admitted misses, at most
  ``max_concurrency`` execute on the facade simultaneously (one executor
  thread each, bridging the pool's futures to awaitables); the rest
  await a semaphore;
* **per-request deadline** — a request on the executor path that
  exceeds its deadline resolves to a ``deadline_exceeded`` envelope (the
  worker's in-flight computation finishes and is discarded; with a
  cacheable request its result still lands in the query cache for the
  retry).  Loop-served hits take no deadline;
* **load shedding** — past ``shed_fraction`` of the pending budget the
  gateway starts rejecting the *cheap-to-recompute* request classes
  (graph walks, neighborhoods, similarity — pure reads a client retries
  for microseconds of worker time) so the remaining headroom goes to the
  expensive classes (annotation, ranking, verification) whose retries
  actually cost compute.  The shed policy is declared per request family
  (``RequestFamily.cheap_to_recompute``), not hard-coded here.

Entry points:

* :meth:`AsyncGateway.serve_async` — one request, one awaitable envelope;
* :class:`GatewayHTTPServer` — a minimal stdlib ``asyncio`` HTTP/1.1
  server speaking the JSON wire protocol (:mod:`repro.serving.protocol`):
  ``POST /v1/query`` with a request envelope body, plus ``GET /healthz``,
  ``GET /stats``, ``GET /metrics`` and ``GET /debug/traces``.
  ``python -m repro.serving.gateway <bundle>`` boots it — the repo is
  drivable with ``curl``.

Every failure crosses the boundary as a structured error envelope; raw
tracebacks stay in the server process.
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import functools
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor

from repro.common import tracing
from repro.common.logging import get_logger
from repro.common.metrics import MetricsRegistry
from repro.serving import faults
from repro.serving.protocol import (
    ProtocolError,
    encode_response,
    decode_request_envelope,
    error_response,
)
from repro.serving.requests import (
    ERROR_BAD_REQUEST,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_OVERLOADED,
    ERROR_UNSUPPORTED_TYPE,
    ERROR_UNSUPPORTED_VERSION,
    ERROR_INTERNAL,
    Request,
    Response,
    family_of,
)
from repro.serving.service import Probe, ServingService
from repro.serving.worker import WORKER_MODES

DEFAULT_MAX_CONCURRENCY = 8
DEFAULT_MAX_PENDING = 64

# HTTP status per envelope error code (ok envelopes are always 200: the
# protocol's status field is authoritative, HTTP codes are a courtesy to
# curl and load balancers).
_HTTP_STATUS_BY_CODE = {
    ERROR_BAD_REQUEST: 400,
    ERROR_UNSUPPORTED_VERSION: 400,
    ERROR_UNSUPPORTED_TYPE: 400,
    ERROR_OVERLOADED: 503,
    ERROR_DEADLINE_EXCEEDED: 504,
    ERROR_INTERNAL: 500,
}
_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

MAX_REQUEST_BYTES = 8 * 1024 * 1024

# /debug/traces response size caps (the tracer's ring may hold more).
DEBUG_TRACES_RECENT = 32
DEBUG_TRACES_SLOWEST = 16

_log = get_logger("serving.gateway")


def _ms_since(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0


class AsyncGateway:
    """Admission-controlled asyncio front door over a :class:`ServingService`."""

    def __init__(
        self,
        service: ServingService,
        *,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        max_pending: int = DEFAULT_MAX_PENDING,
        default_deadline_s: float | None = None,
        shed_fraction: float = 0.75,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_concurrency <= 0:
            raise ValueError(f"max_concurrency must be positive, got {max_concurrency}")
        if max_pending < max_concurrency:
            raise ValueError(
                f"max_pending ({max_pending}) must be >= max_concurrency "
                f"({max_concurrency}) — the executing requests count as pending"
            )
        if not 0.0 < shed_fraction <= 1.0:
            raise ValueError(f"shed_fraction must be in (0, 1], got {shed_fraction}")
        self.service = service
        self.max_concurrency = max_concurrency
        self.max_pending = max_pending
        self.default_deadline_s = default_deadline_s
        self.shed_fraction = shed_fraction
        # Cheap request classes start shedding here; shed_fraction=1.0
        # collapses the shed band into the hard admission limit.
        self._shed_threshold = max(1, int(shed_fraction * max_pending))
        self.metrics = metrics or service.metrics
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="kg-gateway"
        )
        self._pending = 0
        # asyncio primitives bind to the loop that first awaits them; the
        # gateway may outlive several asyncio.run() calls (tests, re-boots),
        # so the semaphore is (re)built per running loop.
        self._semaphore: asyncio.Semaphore | None = None
        self._semaphore_loop: asyncio.AbstractEventLoop | None = None
        self._closed = False

    @property
    def pending(self) -> int:
        """Requests currently admitted (queued or executing)."""
        return self._pending

    def _admission(self) -> asyncio.Semaphore:
        loop = asyncio.get_running_loop()
        if self._semaphore is None or self._semaphore_loop is not loop:
            self._semaphore = asyncio.Semaphore(self.max_concurrency)
            self._semaphore_loop = loop
        return self._semaphore

    async def serve_async(
        self,
        request: Request,
        *,
        deadline_s: float | None = None,
        tenant: str | None = None,
    ) -> Response:
        """One request through admission control; never raises for
        request-level failures — rejection, shedding, deadline and worker
        errors all come back as envelopes.

        ``tenant`` passes through to :meth:`ServingService.serve` —
        admission control is tenant-blind (one shared budget), routing is
        not.

        Under an armed tracer this opens the trace's *root* span
        (``gateway.request``); everything downstream — admission events,
        service stages, shard fan-out, subprocess worker spans — parents
        under it, and the trace completes when the envelope goes out.
        """
        if tracing.active() is None:
            return await self._serve_async_impl(request, deadline_s, tenant)
        with tracing.span(
            "gateway.request", request_type=type(request).__name__
        ) as span:
            response = await self._serve_async_impl(request, deadline_s, tenant)
            span.set_attribute("status", response.status)
            if span.recording and not response.trace_id:
                response.trace_id = span.trace_id
            return response

    async def _serve_async_impl(
        self, request: Request, deadline_s: float | None, tenant: str | None = None
    ) -> Response:
        started = time.perf_counter()
        wire_type = getattr(type(request), "wire_type", "unknown")
        try:
            # The front-door chaos hook: an injected stall or flake at
            # admission models an overloaded accept loop / dying LB — and
            # must surface as an envelope, never an exception.
            faults.fault_point(faults.SITE_GATEWAY_ADMIT, request_type=wire_type)
        except Exception as exc:
            self.metrics.incr("gateway.admit_faults")
            tracing.event("gateway.admit_fault", error=type(exc).__name__)
            return error_response(
                wire_type,
                self.service.store_version,
                ERROR_OVERLOADED,
                f"admission failure: {type(exc).__name__}: {exc}",
                timings={"total_ms": _ms_since(started)},
                exception=exc,
            )
        if self._pending >= self.max_pending:
            self.metrics.incr("gateway.rejected")
            tracing.event("gateway.rejected", pending=self._pending)
            return error_response(
                wire_type,
                self.service.store_version,
                ERROR_OVERLOADED,
                f"admission queue full ({self.max_pending} pending)",
                timings={"total_ms": _ms_since(started)},
            )
        family = family_of(request)
        if (
            self._pending >= self._shed_threshold
            and family is not None
            and family.cheap_to_recompute
        ):
            # Degrade the cheap classes first: their retry costs the
            # client microseconds of worker time, so the headroom between
            # the shed threshold and the hard limit stays reserved for
            # expensive compute (annotation, ranking, verification).
            self.metrics.incr("gateway.shed")
            tracing.event("gateway.shed", pending=self._pending)
            return error_response(
                wire_type,
                self.service.store_version,
                ERROR_OVERLOADED,
                f"shedding cheap-to-recompute {wire_type!r} requests "
                f"({self._pending}/{self.max_pending} pending)",
                timings={"total_ms": _ms_since(started)},
            )
        probe = None
        if tenant is None:
            # Shared scope: probe the query cache here on the loop.  A hit
            # is answered without an executor slot or a thread hand-off; a
            # miss carries its probe along, so it is probed and counted
            # once.  (A tenant lease may cold-attach from disk, so tenant
            # reads always take the executor.)
            probe = self.service.probe(request)
            if probe.response is not None:
                self.metrics.incr("gateway.requests")
                return probe.response
        return await self._admitted(
            request, deadline_s, tenant, started=started, probe=probe
        )

    async def _admitted(
        self,
        request: Request,
        deadline_s: float | None,
        tenant: str | None,
        *,
        started: float,
        probe: Probe | None,
    ) -> Response:
        """The post-admission path of every request the loop did not
        answer from the cache: a concurrency slot, then an executor thread."""
        deadline = deadline_s if deadline_s is not None else self.default_deadline_s
        self._pending += 1
        self.metrics.incr("gateway.requests")
        submitted = False
        try:
            semaphore = self._admission()
            # acquire() sits inside the try: a caller cancelled while
            # queued for a slot must still decrement the pending count
            # (it is instance state and would otherwise inflate forever,
            # eventually rejecting everything as overloaded).
            queue_started = time.perf_counter()
            await semaphore.acquire()
            if tracing.active() is not None:
                tracing.event(
                    "gateway.admitted",
                    queue_ms=(time.perf_counter() - queue_started) * 1000.0,
                )
            deferred_release = False
            try:
                loop = asyncio.get_running_loop()
                call = functools.partial(
                    self.service.serve, request, tenant=tenant, probe=probe
                )
                if tracing.active() is not None:
                    # Executor threads do not inherit this task's
                    # contextvars; carry the gateway span across so the
                    # service's spans join the same trace.
                    context = contextvars.copy_context()
                    future = loop.run_in_executor(
                        self._executor, context.run, call
                    )
                else:
                    future = loop.run_in_executor(self._executor, call)
                submitted = True
                # Shielded: once handed to a thread the call always runs
                # (and finishes its probe), even if this caller is gone.
                if deadline is None:
                    return await asyncio.shield(future)
                try:
                    return await asyncio.wait_for(asyncio.shield(future), deadline)
                except asyncio.TimeoutError:
                    # The worker finishes in the background and its result
                    # is discarded (a cacheable request still lands in the
                    # query cache for the retry).  The concurrency slot
                    # stays held until that abandoned computation completes
                    # — releasing it now would admit new requests into an
                    # executor whose threads are all busy with abandoned
                    # work, burning their deadlines in the executor queue.
                    deferred_release = True
                    future.add_done_callback(lambda _f: semaphore.release())
                    self.metrics.incr("gateway.deadline_exceeded")
                    tracing.event("gateway.deadline_exceeded", deadline_s=deadline)
                    return error_response(
                        getattr(type(request), "wire_type", "unknown"),
                        self.service.store_version,
                        ERROR_DEADLINE_EXCEEDED,
                        f"request exceeded its {deadline:g}s deadline",
                        timings={"total_ms": _ms_since(started)},
                    )
            finally:
                if not deferred_release:
                    semaphore.release()
        finally:
            self._pending -= 1
            if probe is not None and not submitted:
                # Cancelled while queued for a slot, or the bridge is
                # closed: serve() will never see this counted miss.
                self.service.abandon(probe, request)

    def close(self) -> None:
        """Stop the bridge threads (the service itself stays up)."""
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=True)


# -- HTTP front door -----------------------------------------------------------


class GatewayHTTPServer:
    """Minimal asyncio HTTP/1.1 server speaking the JSON wire protocol.

    Stdlib only (``asyncio.start_server`` + hand-rolled request parsing —
    the repo adds no dependencies).  One request per connection
    (``Connection: close``): the protocol is stateless and envelope
    framing stays trivial.
    """

    def __init__(
        self, gateway: AsyncGateway, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.gateway = gateway
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, body = await self._respond(reader)
        except Exception as exc:  # the handler must never take the loop down
            status, body = 500, self._error_body(ERROR_INTERNAL, type(exc).__name__)
        content_type = "application/json"
        if isinstance(body, tuple):
            body, content_type = body
        try:
            writer.write(_http_response(status, body, content_type))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    def _error_body(self, code: str, message: str) -> bytes:
        """A full, codec-decodable error envelope for transport-level
        failures (bad routes, unreadable requests) — a client running
        ``decode_response`` on a 404/405/413 body must get a structured
        error Response, not a ProtocolError."""
        return encode_response(
            error_response(
                "unknown", self.gateway.service.store_version, code, message
            )
        )

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, bytes | tuple[bytes, str]]:
        # The body element is either plain JSON bytes or a (bytes,
        # content-type) pair for non-JSON routes (/metrics).
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return 400, self._error_body(ERROR_BAD_REQUEST, "unreadable request")
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400, self._error_body(ERROR_BAD_REQUEST, "malformed request line")
        method, path = parts[0].upper(), parts[1]

        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, self._error_body(ERROR_BAD_REQUEST, "bad content-length")
                if content_length < 0:
                    return 400, self._error_body(ERROR_BAD_REQUEST, "bad content-length")
        if content_length > MAX_REQUEST_BYTES:
            return 413, self._error_body(
                ERROR_BAD_REQUEST, f"body exceeds {MAX_REQUEST_BYTES} bytes"
            )
        body = await reader.readexactly(content_length) if content_length else b""

        if path == "/healthz" and method == "GET":
            # The service's aggregate health: fleet shape, live workers,
            # respawn count and every breaker's state.  503 when all
            # breakers are open (or no worker is alive) so load balancers
            # route around a fleet that cannot answer anything.
            health = dict(self.gateway.service.health())
            health["pending"] = self.gateway.pending
            status = 200 if health.get("healthy") else 503
            return status, json.dumps(health, sort_keys=True).encode("utf-8")
        if path == "/stats" and method == "GET":
            return 200, json.dumps(
                self.gateway.service.stats(), sort_keys=True, default=str
            ).encode("utf-8")
        if path == "/metrics" and method == "GET":
            # Prometheus text exposition (format 0.0.4) of the shared
            # registry: gateway admission, serve, pool, cache, batcher
            # and breaker series in one scrape.
            return 200, (
                self.gateway.service.prometheus_metrics().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/debug/traces" and method == "GET":
            tracer = tracing.active()
            if tracer is None:
                payload = {
                    "armed": False,
                    "recent": [],
                    "slowest": [],
                    "counters": {},
                }
            else:
                payload = {
                    "armed": True,
                    "recent": tracer.recent(DEBUG_TRACES_RECENT),
                    "slowest": tracer.slowest(DEBUG_TRACES_SLOWEST),
                    "counters": tracer.counters(),
                }
            return 200, json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        if path == "/v1/query":
            if method != "POST":
                return 405, self._error_body(ERROR_BAD_REQUEST, "use POST /v1/query")
            try:
                request, trace_ctx, tenant = decode_request_envelope(body)
            except ProtocolError as exc:
                # Malformed/unsupported input: a structured envelope, not
                # a traceback and not a dropped connection.
                response = error_response(
                    "unknown",
                    self.gateway.service.store_version,
                    exc.code,
                    exc.message,
                )
                return _HTTP_STATUS_BY_CODE.get(exc.code, 400), encode_response(response)
            if trace_ctx is not None and tracing.active() is not None:
                # The client shipped its own trace context: this server's
                # spans join the caller's distributed trace.
                with tracing.seeded(trace_ctx):
                    response = await self.gateway.serve_async(request, tenant=tenant)
            else:
                response = await self.gateway.serve_async(request, tenant=tenant)
            http_status = 200
            if not response.ok and response.error is not None:
                http_status = _HTTP_STATUS_BY_CODE.get(response.error.code, 500)
            return http_status, encode_response(response)
        return 404, self._error_body(ERROR_BAD_REQUEST, f"no such route: {method} {path}")


def _http_response(
    status: int, body: bytes, content_type: str = "application/json"
) -> bytes:
    reason = _HTTP_REASONS.get(status, "Error")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def run_http_gateway(
    service: ServingService,
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
    max_pending: int = DEFAULT_MAX_PENDING,
    default_deadline_s: float | None = None,
    shed_fraction: float = 0.75,
) -> None:
    """Boot the HTTP front door over ``service`` and serve until cancelled."""
    gateway = AsyncGateway(
        service,
        max_concurrency=max_concurrency,
        max_pending=max_pending,
        default_deadline_s=default_deadline_s,
        shed_fraction=shed_fraction,
    )
    server = GatewayHTTPServer(gateway, host=host, port=port)
    bound_host, bound_port = await server.start()
    _log.info(
        "server.started",
        host=bound_host,
        port=bound_port,
        url=f"http://{bound_host}:{bound_port}",
        store_version=service.store_version,
        tracing_armed=tracing.active() is not None,
    )
    try:
        await server.serve_forever()
    finally:
        await server.stop()
        gateway.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serve a persisted KG snapshot bundle over HTTP."
    )
    parser.add_argument("bundle_dir", help="snapshot bundle (save_snapshot output)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--mode", default="inline", choices=WORKER_MODES)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--max-concurrency", type=int, default=DEFAULT_MAX_CONCURRENCY)
    parser.add_argument("--max-pending", type=int, default=DEFAULT_MAX_PENDING)
    parser.add_argument(
        "--deadline-s", type=float, default=None, help="per-request deadline (seconds)"
    )
    parser.add_argument(
        "--tenants-dir",
        default=None,
        help="enable multi-tenant overlay serving: per-tenant bundles live "
        "under this directory (created on first tenant write)",
    )
    parser.add_argument(
        "--max-resident-tenants",
        type=int,
        default=32,
        help="LRU budget of tenant overlays held in memory (evicted tenants "
        "cold-attach from disk on their next request)",
    )
    parser.add_argument(
        "--watch-interval-s",
        type=float,
        default=None,
        help="poll the bundle for new published generations every N seconds "
        "and hot-swap onto them (live growth; off by default)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="arm the in-process tracer: every request builds a span tree, "
        "served at GET /debug/traces (recent + slowest)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="with --trace, head-sample 1 in N requests (default 1 = trace "
        "everything; production deployments wanting <1%% overhead on "
        "sub-millisecond queries should sample, e.g. N=8)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error"),
        help="structured-log level (default: info, or $KG_LOG_LEVEL)",
    )
    args = parser.parse_args(argv)
    if args.log_level is not None:
        from repro.common.logging import set_level

        set_level(args.log_level)
    if args.trace:
        tracing.arm(tracing.Tracer(sample_every=args.trace_sample))
    # SIGTERM takes SIGINT's path out: KeyboardInterrupt unwinds the loop
    # and closes the service, whose pool shuts its workers down.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    with ServingService(
        args.bundle_dir,
        mode=args.mode,
        num_workers=args.workers,
        tenants_dir=args.tenants_dir,
        max_resident_tenants=args.max_resident_tenants,
    ) as service:
        watcher = None
        if args.watch_interval_s is not None:
            from repro.serving.growth import GenerationWatcher

            watcher = GenerationWatcher(
                service, args.bundle_dir, interval_s=args.watch_interval_s
            ).start()
        try:
            asyncio.run(
                run_http_gateway(
                    service,
                    host=args.host,
                    port=args.port,
                    max_concurrency=args.max_concurrency,
                    max_pending=args.max_pending,
                    default_deadline_s=args.deadline_s,
                )
            )
        except KeyboardInterrupt:
            pass
        finally:
            if watcher is not None:
                watcher.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
