#!/usr/bin/env python
"""CI chaos smoke: boot the HTTP gateway under an armed fault plan.

Same shape as ``gateway_smoke.py`` — a small synthetic world
(``CHAOS_SMOKE_SCALE``, default 0.05), a snapshot bundle, the asyncio
HTTP front door on an ephemeral port, one wire request per protocol
type — but with a :class:`FaultPlan` armed the whole time: worker
crashes at rate 0.2, transient I/O errors at rate 0.1, a slow replica
at rate 0.1 and truncated worker results at rate 0.2.  The resilience
layer (retries + supervision) must absorb every injection: each request
type still has to come back ``ok`` with a payload, byte-compatible with
a healthy control run, and ``/healthz`` must keep answering 200
throughout.  Exits non-zero on any violation — including the degenerate
one where the plan injected nothing, which would make the smoke vacuous.
A two-worker process pool then runs under a crash-only plan (the
resilience counters must move), and one of its workers is SIGKILLed
outside chaos: exactly one respawn, and the survivor keeps its pid.

Run directly (CI does): ``PYTHONPATH=src python benchmarks/chaos_smoke.py``
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

from repro.common.metrics import MetricsRegistry
from repro.kg.generator import SyntheticKGConfig, generate_kg
from repro.kg.persistence import save_snapshot
from repro.serving.faults import (
    SITE_WORKER_EXECUTE,
    SITE_WORKER_RESULT,
    FaultPlan,
    FaultSpec,
    armed,
)
from repro.serving.gateway import AsyncGateway, GatewayHTTPServer
from repro.serving.protocol import decode_response, encode_request, encode_response
from repro.serving.requests import WalkRequest
from repro.serving.resilience import CircuitBreaker, CircuitOpenError, RetryPolicy
from repro.serving.service import ServingService
from repro.serving.worker import WorkerPool

# Run as a script (CI) the benchmarks directory itself is on sys.path;
# under pytest the package import works.
try:
    from benchmarks.gateway_smoke import build_requests, http_post
except ModuleNotFoundError:
    from gateway_smoke import build_requests, http_post

SCALE = float(os.environ.get("CHAOS_SMOKE_SCALE", "0.05"))

PLAN = FaultPlan(
    (
        FaultSpec(SITE_WORKER_EXECUTE, "crash", rate=0.2),
        FaultSpec(SITE_WORKER_EXECUTE, "io_error", rate=0.1),
        FaultSpec(SITE_WORKER_EXECUTE, "slow", rate=0.1, delay_s=0.005),
        FaultSpec(SITE_WORKER_RESULT, "corrupt", rate=0.2),
    ),
    seed=41,
)

# Deep budget, short sleeps: the bar is 100% completion under sustained
# chaos, not latency, and CI should not spend its time in backoff.
RETRY_POLICY = RetryPolicy(max_attempts=8, backoff_base_s=0.001, backoff_max_s=0.01)


async def http_get(host: str, port: int, path: str) -> tuple[str, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode("latin-1"), payload


async def smoke(service: ServingService, reference: dict[str, bytes]) -> list[str]:
    failures: list[str] = []
    gateway = AsyncGateway(service, max_concurrency=2, max_pending=16)
    server = GatewayHTTPServer(gateway)
    host, port = await server.start()
    print(
        f"gateway up on http://{host}:{port} under chaos "
        f"(store_version={service.store_version})"
    )
    try:
        for request in build_requests(service):
            name = type(request).__name__
            status, body = await http_post(
                host, port, "/v1/query", encode_request(request)
            )
            try:
                response = decode_response(body)
            except Exception as exc:
                failures.append(f"{name}: un-decodable envelope ({exc})")
                continue
            if status != "HTTP/1.1 200 OK" or not response.ok:
                failures.append(f"{name}: {status}, error={response.error}")
                continue
            if response.payload != reference[name]:
                failures.append(f"{name}: payload diverged from healthy run")
                continue
            print(f"  ok  {name:<22} total_ms={response.timings['total_ms']:.2f}")

        status, body = await http_get(host, port, "/healthz")
        health = json.loads(body)
        if status != "HTTP/1.1 200 OK" or not health.get("healthy"):
            failures.append(f"/healthz under chaos: {status}, {health}")
        else:
            print(
                f"  ok  /healthz               live_workers={health['live_workers']} "
                f"breakers={health['breakers']}"
            )
    finally:
        await server.stop()
        gateway.close()
    return failures


def observability_counters_phase(bundle: Path) -> list[str]:
    """Drive a process-mode pool under deterministic chaos and assert the
    resilience *observability* surface moved: ``pool.retries``,
    ``pool.respawns`` and ``breaker.transitions`` must all be non-zero.

    A crash-only plan at rate 0.5 (never 1.0: the child's injection
    budget resets per respawn, so a certain-crash plan livelocks) plus a
    hair-trigger breaker makes every leg of the story fire within a few
    requests: crash -> failure recorded -> breaker opens -> supervisor
    respawns (and resets the breaker) -> retry succeeds.
    """
    failures: list[str] = []
    metrics = MetricsRegistry("chaos-observability")
    breaker = CircuitBreaker(
        "pool",
        min_volume=1,
        failure_threshold=0.01,
        open_duration_s=0.01,
        metrics=metrics,
    )
    plan = FaultPlan(
        (FaultSpec(SITE_WORKER_EXECUTE, "crash", rate=0.5),), seed=13
    )
    with armed(plan):
        with WorkerPool(
            bundle,
            mode="process",
            num_workers=2,
            metrics=metrics,
            breaker=breaker,
            retry_policy=RETRY_POLICY,
        ) as pool:
            state = pool.local_state
            entities = sorted(state.snapshot.store.entity_ids())[:8]
            answered = 0
            for seed in range(12):
                request = WalkRequest(entities=tuple(entities[:4]), seed=seed)
                try:
                    pool.run(request)
                    answered += 1
                except CircuitOpenError:
                    time.sleep(0.02)  # cooldown elapses; next call probes
                except Exception as exc:
                    failures.append(
                        f"chaos pool request {seed}: {type(exc).__name__}: {exc}"
                    )
    counters = dict(metrics.counters)
    if answered == 0:
        failures.append("chaos pool: no request ever completed")
    for counter in ("pool.retries", "pool.respawns", "breaker.transitions"):
        if counters.get(counter, 0) < 1:
            failures.append(
                f"chaos pool: expected {counter} >= 1, got {counters.get(counter, 0)} "
                f"(counters={ {k: v for k, v in sorted(counters.items())} })"
            )
    if not failures:
        print(
            f"  ok  observability counters  retries={counters['pool.retries']} "
            f"respawns={counters['pool.respawns']} "
            f"breaker_transitions={counters['breaker.transitions']} "
            f"answered={answered}/12"
        )
    return failures


def worker_kill_phase(bundle: Path) -> list[str]:
    """SIGKILL one of two process workers: one respawn per crash, not one
    per fleet, and the survivor keeps its pid."""
    failures: list[str] = []
    metrics = MetricsRegistry("chaos-kill")
    with WorkerPool(bundle, mode="process", num_workers=2, metrics=metrics) as pool:
        entities = sorted(pool.local_state.snapshot.store.entity_ids())[:4]
        request = WalkRequest(entities=tuple(entities), seed=0)
        expected = pool.run(request)
        victim, survivor = (worker.process for worker in pool._executor._workers)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        answered = pool.run(request)
        pids = [worker.process.pid for worker in pool._executor._workers]
    respawns = metrics.counters.get("pool.respawns", 0)
    if answered != expected:
        failures.append("worker kill: the answer after the kill differs")
    if respawns != 1:
        failures.append(f"worker kill: expected exactly 1 respawn, got {respawns}")
    if survivor.pid not in pids or victim.pid in pids:
        failures.append(f"worker kill: fleet {pids} should keep survivor {survivor.pid}")
    if not failures:
        print(f"  ok  worker kill              respawns=1 survivor={survivor.pid} kept")
    return failures


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        bundle = Path(tmp) / "bundle"
        kg = generate_kg(SyntheticKGConfig(seed=7, scale=SCALE))
        save_snapshot(kg.store, bundle)
        # Healthy control run first: chaos answers must match these
        # payloads (roundtripped through the wire codec, so both sides
        # compare in JSON-normalized form).
        with ServingService(bundle, mode="inline") as control:
            reference = {
                type(request).__name__: decode_response(
                    encode_response(control.serve(request))
                ).payload
                for request in build_requests(control)
            }
        with armed(PLAN):
            with ServingService(
                bundle,
                mode="inline",
                cache_capacity=1,
                retry_policy=RETRY_POLICY,
            ) as service:
                failures = asyncio.run(smoke(service, reference))
                stats = service.stats()
        if PLAN.injections() == 0:
            failures.append("fault plan injected nothing — smoke is vacuous")
        failures.extend(observability_counters_phase(bundle))
        failures.extend(worker_kill_phase(bundle))
    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        f"\nchaos smoke: all request types survived "
        f"{PLAN.injections()} injections "
        f"(retries={stats.get('counter.pool.retries', 0.0):.0f})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
