"""Span recorders the traced run wraps around each layer's entry functions.

Nothing here edits the program: :func:`install` replaces public (and a few
boundary) callables of ``repro.serving`` / ``repro.kg`` modules with
wrappers that time each call and note which client request it served.
Spans stay in memory as tuples and are written, one JSON file per
process, when the process ends (:func:`dump`).  The program's own tracer
stays disarmed.

A span is ``(layer, start, end, request, key)``: ``start``/``end`` are
``time.perf_counter()`` readings — CLOCK_MONOTONIC on Linux, so the
client, the gateway and its worker processes share one timeline;
``request`` is the client's local TCP port (the gateway learns it from
the accepted socket); ``key`` is ``repr(request)`` on worker submit and
execute, which is how a worker-process span finds its request.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import threading
import time
from pathlib import Path

SPANS: list[tuple] = []
_now = time.perf_counter
_request_var: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_request", default=None
)
_thread = threading.local()
# id(request object) -> client port, handed from the event loop (where the
# connection is known) to the executor thread that serves the request.
_handoff: dict[int, int] = {}


def current_request() -> int | None:
    rid = getattr(_thread, "rid", None)
    return rid if rid is not None else _request_var.get()


def _sync(layer: str, fn, *, keyed: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = _now()
            key = repr(args[1]) if keyed else None
            SPANS.append((layer, started, ended, current_request(), key))

    return wrapper


def _handle(fn):
    """The connection handler: the request's root span, keyed by peer port."""

    @functools.wraps(fn)
    async def wrapper(self, reader, writer, *args, **kwargs):
        peer = writer.get_extra_info("peername")
        rid = peer[1] if peer else None
        _request_var.set(rid)
        started = _now()
        try:
            return await fn(self, reader, writer, *args, **kwargs)
        finally:
            SPANS.append(("gateway.http", started, _now(), rid, None))

    return wrapper


def _admission(fn):
    @functools.wraps(fn)
    async def wrapper(self, request, *args, **kwargs):
        rid = _request_var.get()
        if rid is not None:
            _handoff[id(request)] = rid
        started = _now()
        try:
            return await fn(self, request, *args, **kwargs)
        finally:
            _handoff.pop(id(request), None)
            SPANS.append(("gateway.admission", started, _now(), rid, None))

    return wrapper


def _service(fn):
    @functools.wraps(fn)
    def wrapper(self, request, *args, **kwargs):
        outer = getattr(_thread, "rid", None)
        rid = _handoff.get(id(request), outer)
        _thread.rid = rid
        started = _now()
        try:
            return fn(self, request, *args, **kwargs)
        finally:
            SPANS.append(("service.serve", started, _now(), rid, None))
            _thread.rid = outer

    return wrapper


def dump(directory: str | Path, role: str) -> Path:
    """Write this process's spans to ``<directory>/spans-<role>-<pid>.json``."""
    path = Path(directory) / f"spans-{role}-{os.getpid()}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(SPANS), encoding="utf-8")
    os.replace(tmp, path)
    return path


def install(directory: str | Path) -> None:
    """Wrap every layer boundary; worker processes dump their spans at exit."""
    from multiprocessing import util

    from repro.serving import batcher, cache, gateway, router, service, tenancy, worker

    server = gateway.GatewayHTTPServer
    server._handle = _handle(server._handle)
    gateway.decode_request_envelope = _sync("protocol.decode", gateway.decode_request_envelope)
    gateway.encode_response = _sync("protocol.encode", gateway.encode_response)
    gateway._http_response = _sync("gateway.frame", gateway._http_response)
    gateway.AsyncGateway.serve_async = _admission(gateway.AsyncGateway.serve_async)
    service.ServingService.serve = _service(service.ServingService.serve)
    cache.QueryCache.get = _sync("cache.probe", cache.QueryCache.get)
    cache.QueryCache.put = _sync("cache.put", cache.QueryCache.put)
    router.ShardRouter.scatter_request = _sync("router.scatter", router.ShardRouter.scatter_request)
    router.ShardRouter.gather = staticmethod(_sync("router.gather", router.ShardRouter.gather))
    batcher.MicroBatcher.submit = _sync("batcher.submit", batcher.MicroBatcher.submit)
    batcher.MicroBatcher.flush = _sync("batcher.flush", batcher.MicroBatcher.flush)
    worker.WorkerPool.submit = _sync("worker.submit", worker.WorkerPool.submit, keyed=True)
    worker.WorkerPool.resolve = _sync("worker.wait", worker.WorkerPool.resolve)
    worker.WorkerState.execute = _sync("worker.compute", worker.WorkerState.execute, keyed=True)
    registry = tenancy.TenantRegistry
    registry._acquire = _sync("tenancy.lease", registry._acquire)
    registry.upsert = _sync("tenancy.write", registry.upsert)
    registry.sync = _sync("tenancy.write", registry.sync)
    registry.execute_on = _sync("tenancy.read", registry.execute_on)
    tenancy.TenantState.engine = _sync("overlay.engine", tenancy.TenantState.engine)

    initializer = worker._process_initializer

    @functools.wraps(initializer)
    def traced_initializer(*args, **kwargs):
        # A forked worker inherits the gateway's spans; it records only its own.
        SPANS.clear()
        util.Finalize(None, dump, args=(directory, "worker"), exitpriority=100)
        return initializer(*args, **kwargs)

    worker._process_initializer = traced_initializer
