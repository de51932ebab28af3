"""Serving workers: bundle-backed request executors, in one process or many.

A :class:`WorkerState` is one worker's view of the platform: it
``load_snapshot``\\ s a persisted KG bundle (mmap — arrays land in the
shared OS page cache, so N workers on one host map the *same* physical
pages) and lazily stands up the helpers each request family needs — the
graph engine with the adopted CSR, per-tier annotation pipelines, and the
traversal related-entities backend built over the adopted snapshot.

Two executors share one ``submit(request) -> Future`` surface:

* **inline** — the same-process fallback: one shared state, executed
  synchronously on the caller's thread.  Tests and small deployments need
  no subprocesses, and the process fleet must be byte-identical to it.
* **process** — N children forked at construction, each loading the
  bundle and pinned to its own duplex pipe.  This is the throughput
  configuration: annotation is pure Python/NumPy compute, so only
  processes scale it across cores.

Serving walk semantics are **per-entity**: each entity's walks replay an
independent substream derived from ``(seed, entity)`` via
:func:`entity_walk_seed`.  That makes a walk request's result invariant
to sharding, worker count and executor mode — the property the router's
"byte-identical through the router" contract rests on.  (A plain
:meth:`GraphEngine.random_walks` call over a *list* threads one stream
through all entities, which no partitioning could reproduce.)
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import signal
import stat
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

from repro.common import tracing
from repro.common.blas import set_blas_threads
from repro.common.metrics import MetricsRegistry
from repro.serving import faults
from repro.serving.resilience import (
    CircuitBreaker,
    RetryPolicy,
    ShardResultError,
    WorkerCrashError,
    is_retryable,
)
from repro.serving.requests import TENANT_WRITE, Request, family_of
from repro.serving.requests import entity_walk_seed as entity_walk_seed  # re-export

WORKER_MODES = ("inline", "process")


@dataclass(frozen=True)
class WorkerConfig:
    """Deterministic per-worker build recipe (identical across replicas).

    Every worker must construct byte-identical helpers, so everything a
    lazy build depends on is pinned here rather than defaulted at call
    sites.  ``verify`` mirrors :func:`load_snapshot`'s checksum knob —
    workers re-mapping a bundle the parent already verified can skip the
    hash pass for a faster spawn.
    """

    related_dim: int = 32
    related_walk_length: int = 8
    related_walks_per_entity: int = 6
    related_window: int = 3
    related_seed: int = 0
    verify: bool = True
    # Embedding-family backends (fact ranking / verification / similarity /
    # k-NN) adopt the bundle's persisted ``embeddings/`` layer when its
    # recipe matches these fields, and train from the fact log otherwise.
    # Training is fully seeded and build_dataset orders its vocabulary
    # deterministically, so every replica — inline or subprocess — derives
    # byte-identical vectors from the same bundle either way.
    embedding_model: str = "distmult"
    embedding_dim: int = 32
    embedding_epochs: int = 15
    embedding_seed: int = 0
    calibration_fraction: float = 0.1
    # k-NN index shape: the first four are adopt-match recipe fields, the
    # last two are query-time knobs (see EmbeddingSuiteConfig).
    knn_nlist: int = 16
    knn_kmeans_iterations: int = 8
    knn_seed: int = 0
    knn_quantization: str | None = None
    knn_nprobe: int = 4
    knn_rerank_factor: int = 4

    def embedding_config(self) -> "EmbeddingSuiteConfig":
        """These fields as the embedding-suite build recipe."""
        from repro.embeddings.suite import EmbeddingSuiteConfig

        return EmbeddingSuiteConfig(
            model=self.embedding_model,
            dim=self.embedding_dim,
            epochs=self.embedding_epochs,
            seed=self.embedding_seed,
            calibration_fraction=self.calibration_fraction,
            knn_nlist=self.knn_nlist,
            knn_nprobe=self.knn_nprobe,
            knn_kmeans_iterations=self.knn_kmeans_iterations,
            knn_seed=self.knn_seed,
            knn_quantization=self.knn_quantization,
            knn_rerank_factor=self.knn_rerank_factor,
        )


class WorkerState:
    """One worker's loaded bundle plus lazily-built request helpers."""

    def __init__(self, bundle_dir: str | Path, config: WorkerConfig | None = None) -> None:
        self.bundle_dir = Path(bundle_dir)
        self.config = config or WorkerConfig()
        from repro.kg.persistence import load_snapshot

        self.snapshot = load_snapshot(self.bundle_dir, verify=self.config.verify)
        self.engine = self.snapshot.engine()
        self.store_version = int(self.snapshot.manifest["store_version"])
        self._helpers: dict[object, object] = {}
        # Lazy helper construction must be once-only when threads share
        # this state (the gateway's executor threads over an inline pool).
        self._build_lock = threading.RLock()

    @property
    def dictionary(self):
        """The snapshot dictionary (router id source), or ``None`` if absent."""
        adjacency = self.snapshot.adjacency
        return adjacency.dictionary if adjacency is not None else None

    def _helper(self, key: object, build):
        """The helper cached under ``key``, built by ``build()`` once."""
        helper = self._helpers.get(key)
        if helper is None:
            with self._build_lock:
                helper = self._helpers.get(key)
                if helper is None:
                    helper = self._helpers[key] = build()
        return helper

    def pipeline(self, tier: str):
        """The annotation pipeline for ``tier``, built on first use."""
        return self._helper(
            ("pipeline", tier), lambda: self.snapshot.annotation_pipeline(tier=tier)
        )

    def related_backend(self):
        """The traversal related-entities backend, built on first use.

        Construction is deterministic in :class:`WorkerConfig`, so every
        replica builds the same vectors; the worker's engine (with the
        mmap-adopted CSR) is reused, skipping the adjacency rebuild.
        """
        from repro.services.related_entities import TraversalRelatedEntities

        config = self.config
        return self._helper(
            "related",
            lambda: TraversalRelatedEntities(
                self.snapshot.store,
                dim=config.related_dim,
                walk_length=config.related_walk_length,
                walks_per_entity=config.related_walks_per_entity,
                window=config.related_window,
                seed=config.related_seed,
                engine=self.engine,
            ),
        )

    def embedding_suite(self) -> "EmbeddingSuite":
        """The embedding-family backends, adopted (or trained) on first use.

        One deterministic build serves all three newly-servable request
        families: a :class:`FactRanker` (ranking), a calibrated
        :class:`FactVerifier` (verification) and an
        :class:`EmbeddingService` (similarity / k-NN) share one trained
        model, exactly as Figure 1's serving platform shares its
        embedding service across knowledge services.  When the bundle
        carries a fresh ``embeddings/`` layer matching this worker's
        recipe, the suite is reconstructed zero-copy from the mmapped
        arrays — no SGD, no calibration pass, no k-means — so N replicas
        share one page-cache copy of the trained state.
        """
        return self._helper(
            "embeddings",
            lambda: self.snapshot.embedding_suite(self.config.embedding_config()),
        )

    # -- request execution ---------------------------------------------------

    def execute(self, request: Request) -> list:
        """Answer one request; results are per-entity (or per-text) lists.

        The two ``fault_point`` hooks bracket the dispatch: the first can
        kill/stall/flake the worker *before* any compute (a crash mid
        request), the second can corrupt the *result* on its way out (a
        truncated response).  Both are a no-op unless a chaos plan is
        armed.
        """
        wire_type = getattr(type(request), "wire_type", "")
        with tracing.span("worker.execute", request_type=wire_type):
            faults.fault_point(faults.SITE_WORKER_EXECUTE, request_type=wire_type)
            result = self._dispatch(request)
            return faults.fault_point(
                faults.SITE_WORKER_RESULT, result, request_type=wire_type
            )

    def _dispatch(self, request: Request) -> list:
        family = family_of(request)
        if family is None:
            raise TypeError(f"unsupported request type: {type(request).__name__}")
        if family.tenant_role == TENANT_WRITE:
            # Isolation at dispatch: the shared fleet serves only shared
            # state.  Tenant writes are handled by the TenantRegistry in
            # the service process and must never reach a worker replica.
            raise TypeError(
                f"{type(request).__name__} targets per-tenant state; "
                "shared workers never serve the tenant request family"
            )
        return family.execute(self, request)


# -- executors ----------------------------------------------------------------


class InlineExecutor:
    """Same-process fallback: execute synchronously on the caller's thread."""

    def __init__(self, state: WorkerState) -> None:
        self.state = state

    def submit(self, request: Request) -> Future:
        future: Future = Future()
        try:
            future.set_result(self.state.execute(request))
        except BaseException as exc:  # surfaced via future, like real pools
            future.set_exception(exc)
        return future

    def respawn(self) -> bool:
        """Nothing to respawn: the caller's thread cannot die under us."""
        return False

    def live_workers(self) -> int:
        return 1

    def close(self) -> None:
        pass


_PROCESS_STATE: WorkerState | None = None


def _process_initializer(
    bundle_dir: str, config: WorkerConfig, plan: "faults.FaultPlan | None" = None
) -> None:
    global _PROCESS_STATE
    # The gateway routes SIGTERM into its own shutdown; a worker just dies.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Crashes in a subprocess worker must be real process deaths (the
    # parent then reads EOF on its pipe, exactly like after a segfault).
    faults.mark_worker_process()
    if plan is not None:
        faults.arm(plan)
    # The fleet is one process per core, so a second BLAS thread here has
    # no core of its own and only spin-waits between the related build's
    # LAPACK calls.  Set before any BLAS call, while this fork is still
    # single-threaded (the setter is process-global).  Inline mode shares
    # the gateway's process and leaves its count alone.
    set_blas_threads(1)
    _PROCESS_STATE = WorkerState(bundle_dir, config)


def _close_inherited_sockets(keep: int) -> None:
    """Drop this forked worker's copies of the parent's sockets, but ``keep``.

    Workers fork at boot, after a generation swap and on respawn — in a
    gateway, while client connections are open.  A child holding a copy
    keeps that connection alive after the gateway closes it, so the client
    never sees EOF.  A duplex pipe is a socketpair, so the worker's own end
    (``keep``) is spared; its siblings' ends and the parent's are not, and
    the parent's EOF detection depends on that.  Each socket descriptor is
    pointed at ``/dev/null`` rather than closed: its number stays taken,
    so a copied socket object finalised in this child later cannot close
    a descriptor the worker opened since.
    """
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir("/dev/fd"):
            fd = int(name)
            try:
                if fd != keep and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:
                pass  # the listing's own descriptor, closed since
    finally:
        os.close(devnull)


def _worker_main(conn, bundle_dir: str, config: WorkerConfig, plan) -> None:
    """A process worker: answer ``(request_id, request, trace_ctx)`` in order.

    Each reply is ``(request_id, ok, result_or_exc, spans)``.  The worker
    returns on the ``None`` sentinel and on EOF, so it never outlives its
    parent, and it returns rather than exits so that exit handlers run.
    """
    _close_inherited_sockets(keep=conn.fileno())
    # Looked up as a module global on purpose: a wrapper installed over
    # the module attribute before the fork runs in the child too.
    _process_initializer(bundle_dir, config, plan)
    state = _PROCESS_STATE
    collector: tracing.Tracer | None = None
    with contextlib.suppress(EOFError, OSError):  # the parent is gone
        for request_id, request, trace_ctx in iter(conn.recv, None):
            ok, spans = True, None
            try:
                if trace_ctx is not None and collector is None:
                    # The parent shipped its trace position: this worker's
                    # spans go to a local collector and home with the reply.
                    collector = tracing.arm(tracing.Tracer(ring_capacity=0))
                try:
                    with tracing.seeded(trace_ctx):
                        value = state.execute(request)
                finally:
                    spans = collector.drain() if trace_ctx is not None else None
            except Exception as exc:
                # A failed attempt's spans are dropped with it.
                ok, value, spans = False, exc, None
            try:
                reply = ForkingPickler.dumps((request_id, ok, value, spans))
            except Exception as exc:  # the result or the exception does not pickle
                failure = RuntimeError(repr(value if not ok else exc))
                reply = ForkingPickler.dumps((request_id, False, failure, None))
            conn.send_bytes(reply)


class _Worker:
    """One forked child, its open requests and the parent's end of its pipe (closed: dead)."""

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.pending: dict[int, Future] = {}


class ProcessExecutor:
    """N forked children, each mapping the same bundle (shared page cache).

    Each child is pinned to its own duplex pipe, and one parent thread per
    child reads its replies and resolves futures by request id.  A child's
    death (a real crash, an OOM kill, or an injected ``os._exit``) shows
    as EOF on its pipe: only that child's pending futures fail, with
    :class:`WorkerCrashError`, and :meth:`respawn` replaces only that
    child, from the same pinned ``WorkerConfig`` over the same immutable
    bundle.  Replacement replicas are byte-identical to the ones they
    replace, which is what keeps retried answers identical to never-failed
    ones.
    """

    def __init__(
        self, bundle_dir: Path, num_workers: int, config: WorkerConfig
    ) -> None:
        self.bundle_dir = str(bundle_dir)
        self.config = config
        self._request_ids = itertools.count()
        self._spawn_numbers = itertools.count(1)
        self._closed = False
        # Guards the fleet list and every pipe write and close.
        self._lock = threading.Lock()
        self._workers = [self._spawn() for _ in range(num_workers)]

    def _spawn(self) -> _Worker:
        plan = faults.active_plan()
        if plan is not None:
            # Re-armed under this spawn's number: a replacement replica
            # draws a different (still deterministic) injection schedule,
            # so one scheduled crash can't wedge every respawn forever.
            plan = plan.reseeded(next(self._spawn_numbers))
        context = multiprocessing.get_context("fork")
        conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_main,
            args=(child_conn, self.bundle_dir, self.config, plan),
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, conn)
        threading.Thread(
            target=self._read, args=(worker,), name="kg-worker-reader", daemon=True
        ).start()
        return worker

    def _read(self, worker: _Worker) -> None:
        """Resolve ``worker``'s futures from its replies until its pipe ends."""
        try:
            while True:
                request_id, ok, value, spans = worker.conn.recv()
                future = worker.pending.pop(request_id)
                tracer = tracing.active()
                if spans and tracer is not None:
                    # Adopted before the future resolves, so the request's
                    # root span cannot finish first.
                    tracer.adopt(spans)
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(value)
        except Exception as exc:  # EOF, a broken pipe or a reply that does not unpickle
            cause = exc
        with self._lock:
            worker.conn.close()
            lost, worker.pending = worker.pending, {}
        for future in lost.values():
            future.set_exception(WorkerCrashError(f"worker {worker.process.pid} lost: {cause!r}"))

    def submit(self, request: Request) -> Future:
        """Send ``request`` to the live worker with the fewest requests in flight.

        Ties go to the lowest index, so a scatter's parts, submitted back
        to back, land one per worker on an idle fleet.  After :meth:`close`
        a request meets a stopped worker and fails as a crash would.
        """
        future: Future = Future()
        request_id = next(self._request_ids)
        with self._lock:
            worker = min(self._workers, key=lambda w: (w.conn.closed, len(w.pending)))
            worker.pending[request_id] = future
            try:
                worker.conn.send((request_id, request, tracing.current_context()))
            except Exception as exc:  # a dead worker's pipe, or an unpicklable request
                del worker.pending[request_id]
                future.set_exception(exc)
        return future

    def respawn(self) -> bool:
        """Replace every dead worker; ``True`` if any was replaced.

        Each dead child is joined first, so the CPU it spent stays in this
        process's reaped-children time.
        """
        with self._lock:
            if self._closed:
                return False
            dead = [index for index, worker in enumerate(self._workers) if worker.conn.closed]
            for index in dead:
                self._workers[index].process.join()
                self._workers[index] = self._spawn()
        return bool(dead)

    def live_workers(self) -> int:
        """Children currently alive."""
        return sum(1 for worker in self._workers if worker.process.is_alive())

    def close(self) -> None:
        """Stop every worker once it has answered what it was already sent."""
        with self._lock:
            self._closed = True
            for worker in self._workers:
                with contextlib.suppress(OSError):  # a dead worker answers nothing
                    worker.conn.send(None)
        for worker in self._workers:
            worker.process.join()


class WorkerPool:
    """A fleet of bundle replicas behind one ``submit``/``run`` surface.

    ``mode`` picks the executor (``inline``/``process``); both answer
    identically, so deployments move between them by flag.  The pool
    always keeps a parent-side :class:`WorkerState` — inline mode executes
    on it, process mode uses it for the router's dictionary and the
    bundle's ``store_version`` (children map the same pages, so the extra
    load is page-cache cheap).

    Request counts and a bounded latency histogram are tracked in
    ``metrics`` (``pool.requests``, ``pool.requests.<Type>``,
    ``pool.latency``); :meth:`stats` flattens them for the facade.

    Supervision: :meth:`resolve` waits on a future under ``retry_policy``
    — a retryable failure (worker crash, transient I/O, a truncated
    result) heals the executor (:meth:`ProcessExecutor.respawn`)
    and re-dispatches until the budget runs out, while the pool-level
    :class:`CircuitBreaker` trips after sustained failure so callers stop
    hammering a dead fleet.
    Retries are safe because every request is a pure read over an
    immutable snapshot generation, and replacement replicas rebuild from
    the same pinned ``WorkerConfig`` — a retried answer is byte-identical
    to a never-failed one.
    """

    def __init__(
        self,
        bundle_dir: str | Path,
        *,
        num_workers: int = 1,
        mode: str = "inline",
        config: WorkerConfig | None = None,
        metrics: MetricsRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if mode not in WORKER_MODES:
            raise ValueError(f"mode must be one of {WORKER_MODES}, got {mode!r}")
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.bundle_dir = Path(bundle_dir)
        self.num_workers = num_workers
        self.mode = mode
        self.config = config or WorkerConfig()
        self.retry_policy = retry_policy or RetryPolicy()
        self.metrics = metrics or MetricsRegistry("worker-pool")
        self.breaker = breaker or CircuitBreaker("pool", metrics=self.metrics)
        if self.breaker.metrics is None:
            # Caller-supplied breakers still count transitions here unless
            # they already report somewhere else.
            self.breaker.metrics = self.metrics
        self.local_state = WorkerState(self.bundle_dir, self.config)
        if mode == "inline":
            self._executor = InlineExecutor(self.local_state)
        else:
            # The parent-side load above already ran the checksum pass (per
            # config.verify); children re-map the very same verified bundle,
            # so they skip it — exactly the WorkerConfig.verify fast path —
            # instead of paying num_workers redundant full-bundle hashes.
            self._executor = ProcessExecutor(
                self.bundle_dir, num_workers, replace(self.config, verify=False)
            )
        self._closed = False

    @property
    def store_version(self) -> int:
        """The bundle generation every worker serves."""
        return self.local_state.store_version

    def submit(self, request: Request) -> Future:
        """Dispatch one request; the future resolves to its result list."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        # A worker that died idle is replaced before the fleet takes more.
        self._supervise()
        faults.fault_point(
            faults.SITE_POOL_SUBMIT,
            request_type=getattr(type(request), "wire_type", ""),
        )
        self.metrics.incr("pool.requests")
        self.metrics.incr(f"pool.requests.{type(request).__name__}")
        start = time.perf_counter()
        future = self._executor.submit(request)
        future.add_done_callback(
            lambda _: self.metrics.hist("pool.latency", time.perf_counter() - start)
        )
        return future

    def resolve(self, request: Request, future: Future) -> tuple[list, int]:
        """Wait on ``future``, retrying under the policy; ``(result, attempts)``.

        The serving stack's one retry loop.  A result shorter or longer
        than the request's item count (a truncated reply) fails the
        attempt as a retryable :class:`ShardResultError`, like a crash.
        Each failed attempt records into the breaker and heals the
        executor; past the budget (or on a non-retryable error) the last
        exception propagates to the caller's degradation path.  Waiting
        through :meth:`resolve` rather than ``future.result()`` is what
        turns a worker death into a retry instead of a client-visible 500.
        """
        policy = self.retry_policy
        family = family_of(request)
        expected = family.expected_items(request) if family is not None else None
        key = repr(request)
        attempts = 0
        while True:
            attempts += 1
            try:
                result = future.result()
                if expected is not None and len(result) != expected:
                    self.metrics.incr("pool.corrupt_results")
                    raise ShardResultError(
                        f"worker returned {len(result)} results for {expected} items"
                    )
            except BaseException as exc:
                self.metrics.incr("pool.failures")
                self.breaker.record_failure()
                self._supervise()
                if attempts >= policy.max_attempts or not is_retryable(exc):
                    raise
                self.metrics.incr("pool.retries")
                tracing.event(
                    "pool.retry", attempt=attempts, error=type(exc).__name__
                )
                time.sleep(policy.backoff_s(attempts, key=key))
                # Re-check the breaker before re-dispatching: sustained
                # failure must stop burning retries on a dead fleet.
                self.breaker.check()
                future = self.submit(request)
                continue
            self.breaker.record_success()
            return result, attempts

    def run_resilient(self, request: Request) -> tuple[list, int]:
        """Breaker-gated dispatch-and-wait; ``(result, attempts)``."""
        self.breaker.check()
        return self.resolve(request, self.submit(request))

    def _supervise(self) -> None:
        """Heal the executor (replace dead process workers).

        A successful respawn also resets the pool breaker: a dead worker
        fails every future it had in flight at once (one fault, N recorded
        failures), and that burst must not open the breaker against the
        fresh worker that just replaced it.
        """
        if self._executor.respawn():
            self.metrics.incr("pool.respawns")
            tracing.event("pool.respawn")
            self.breaker.reset()

    def run(self, request: Request) -> list:
        """Dispatch and wait (retrying under the policy)."""
        result, _ = self.run_resilient(request)
        return result

    def map(self, requests: list[Request]) -> list[list]:
        """Dispatch many requests concurrently, results in request order.

        Each future resolves through the retry loop, so one crashed
        worker mid-fan-out costs a resubmit, not the whole map.
        """
        futures = [self.submit(request) for request in requests]
        return [
            self.resolve(request, future)[0]
            for request, future in zip(requests, futures)
        ]

    def live_workers(self) -> int:
        """Workers currently able to take requests."""
        return self._executor.live_workers()

    def stats(self) -> dict[str, float | str]:
        """Flat metrics snapshot plus pool shape and breaker state."""
        out: dict[str, float | str] = dict(self.metrics.snapshot())
        out["pool.workers"] = float(self.num_workers)
        out["pool.store_version"] = float(self.store_version)
        out["pool.live_workers"] = float(self.live_workers())
        breaker = self.breaker.snapshot()
        out["pool.breaker.state"] = breaker["state"]
        out["pool.breaker.transitions"] = float(breaker["transitions"])
        return out

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        if not self._closed:
            self._closed = True
            self._executor.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
