"""F-resilience — what fault tolerance costs when nothing is failing.

The resilience layer (retry loops, circuit breakers, shard-result
validation, degradation bookkeeping) sits on the hot path of every
request, so its fault-free overhead must be provably negligible.  Both
arms run in one process on the same bundle and the same query stream:

* **bare** — ``ServingService(resilient=False)``: plain futures, no
  retries, no breakers consulted per shard;
* **resilient** — the default dispatch with the full supervision stack.

The floor: resilient throughput within 5% of bare.  Parity is
unconditional — both arms must answer byte-identically.

The second row pins *recovery*: SIGKILL a subprocess worker and measure
the wall-clock from the kill to the next successful (and byte-identical)
answer — respawn + bundle re-map + retry, the metric the ROADMAP's
"recovery-to-healthy bounded" item asks for.  A chaos row records
throughput under injected crashes (rate 0.2) for trend tracking.
"""

import os
import signal
import time

import pytest

from benchmarks.conftest import check_floor, record_result
from repro.kg.persistence import save_snapshot
from repro.serving.faults import SITE_WORKER_EXECUTE, FaultPlan, FaultSpec, armed
from repro.serving.requests import NeighborhoodRequest, WalkRequest
from repro.serving.resilience import RetryPolicy
from repro.serving.service import ServingService

WALK_QUERY_ENTITIES = 8
WALK_QUERIES = 60
OVERHEAD_BUDGET = 1.05  # resilient dispatch may cost at most 5% fault-free
RECOVERY_BUDGET_MS = 5000.0


@pytest.fixture(scope="module")
def bundle_dir(bench_kg, tmp_path_factory):
    directory = tmp_path_factory.mktemp("resilience-bundle")
    save_snapshot(bench_kg.store, directory)
    return directory


@pytest.fixture(scope="module")
def walk_requests(bench_kg):
    entities = sorted(bench_kg.store.entity_ids())
    return [
        WalkRequest(
            entities=tuple(
                entities[(index * WALK_QUERY_ENTITIES + offset) % len(entities)]
                for offset in range(WALK_QUERY_ENTITIES)
            ),
            seed=17,
        )
        for index in range(WALK_QUERIES)
    ]


def test_fault_free_overhead(benchmark, bundle_dir, walk_requests):
    """Queries/s with the resilience stack on vs off, no faults armed.

    The arms are interleaved *per query* in alternating order (one bare
    serve, one resilient serve of the same request, flipping who goes
    first), taking each query's minimum over the repeats and summing per
    arm.  Coarser protocols — back-to-back blocks, or even block-level
    pairs — confound the comparison with whole-process drift (frequency
    scaling, allocator growth, CPU steal) that dwarfs the few-percent
    effect being measured; the per-query min filters those bursts out of
    both arms symmetrically.
    """
    with ServingService(
        bundle_dir, mode="inline", resilient=False
    ) as bare, ServingService(bundle_dir, mode="inline") as resilient:
        reference = [bare.serve(request).payload for request in walk_requests]
        warm = [resilient.serve(request).payload for request in walk_requests]
        # Parity is unconditional: the supervision path must not change
        # a single byte of any fault-free answer.
        assert warm == reference

        best = {
            "bare": [float("inf")] * WALK_QUERIES,
            "resilient": [float("inf")] * WALK_QUERIES,
        }
        for repeat in range(6):
            bare._cache.clear()
            resilient._cache.clear()
            for index, request in enumerate(walk_requests):
                arms = [("bare", bare), ("resilient", resilient)]
                if (repeat + index) % 2:
                    arms.reverse()
                for label, service in arms:
                    start = time.perf_counter()
                    payload = service.serve(request).payload
                    elapsed = time.perf_counter() - start
                    assert payload == reference[index]
                    best[label][index] = min(best[label][index], elapsed)

    bare_time = sum(best["bare"])
    resilient_time = sum(best["resilient"])
    overhead = resilient_time / bare_time
    bare_qps = WALK_QUERIES / bare_time
    resilient_qps = WALK_QUERIES / resilient_time
    benchmark.extra_info["bare_qps"] = bare_qps
    benchmark.extra_info["resilient_qps"] = resilient_qps
    benchmark.extra_info["overhead"] = overhead
    benchmark(lambda: None)
    record_result(
        "F-resilience",
        {
            "op": "walk_queries",
            "mode": "bare",
            "entities_per_query": WALK_QUERY_ENTITIES,
            "queries_per_s": round(bare_qps, 1),
        },
    )
    record_result(
        "F-resilience",
        {
            "op": "walk_queries",
            "mode": "resilient",
            "entities_per_query": WALK_QUERY_ENTITIES,
            "queries_per_s": round(resilient_qps, 1),
            "overhead_vs_bare": round(overhead, 3),
        },
    )
    check_floor(
        overhead <= OVERHEAD_BUDGET,
        f"resilient dispatch {overhead:.3f}x slower than bare "
        f"(> {OVERHEAD_BUDGET:.2f}x budget)",
    )


def test_recovery_after_worker_kill(benchmark, bundle_dir, bench_kg):
    """Wall-clock from SIGKILL of a subprocess worker to a healthy answer."""
    entities = tuple(sorted(bench_kg.store.entity_ids())[:WALK_QUERY_ENTITIES])
    request = NeighborhoodRequest(entities=entities, hops=1)
    with ServingService(
        bundle_dir, mode="process", num_workers=2, cache_capacity=1
    ) as service:
        before = service.serve(request)
        assert before.ok
        # Kill the whole fleet and wait until the children are gone, so
        # the answer needs respawned workers whichever part lands where.
        # The wait is part of the recovery being timed.
        processes = [worker.process for worker in service._pool._executor._workers]
        started = time.perf_counter()
        for process in processes:
            os.kill(process.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while any(process.is_alive() for process in processes):
            assert time.monotonic() < deadline, "killed child did not exit"
            time.sleep(0.005)
        service._cache.clear()
        after = service.serve(request)
        recovery_ms = (time.perf_counter() - started) * 1000.0
        assert after.ok
        assert after.payload == before.payload
        stats = service.stats()
        assert stats["counter.pool.respawns"] >= 1.0

    benchmark.extra_info["recovery_ms"] = recovery_ms
    benchmark(lambda: None)
    record_result(
        "F-resilience",
        {
            "op": "worker_kill_recovery",
            "mode": "process",
            "workers": 2,
            "recovery_ms": round(recovery_ms, 1),
        },
    )
    check_floor(
        recovery_ms <= RECOVERY_BUDGET_MS,
        f"worker-kill recovery took {recovery_ms:.0f}ms "
        f"(> {RECOVERY_BUDGET_MS:.0f}ms budget)",
    )


def test_chaos_throughput(benchmark, bundle_dir, walk_requests):
    """Queries/s with crashes injected at rate 0.2 — completion stays 100%."""
    with ServingService(bundle_dir, mode="inline") as healthy:
        reference = [healthy.serve(request).payload for request in walk_requests]

    plan = FaultPlan(
        (FaultSpec(SITE_WORKER_EXECUTE, "crash", rate=0.2),), seed=29
    )
    # At rate 0.2 a 4-crash streak on one shard (0.16% per sub-request)
    # is expected every few hundred sub-requests, so the default 4-attempt
    # budget is too shallow for a 100%-completion bar; deepen it and keep
    # backoffs short so sleeps don't dominate the throughput number.
    chaos_policy = RetryPolicy(
        max_attempts=8, backoff_base_s=0.001, backoff_max_s=0.01
    )
    with armed(plan):
        with ServingService(
            bundle_dir,
            mode="inline",
            cache_capacity=1,
            retry_policy=chaos_policy,
        ) as service:
            started = time.perf_counter()
            responses = [service.serve(request) for request in walk_requests]
            elapsed = time.perf_counter() - started
            stats = service.stats()

    completed = sum(1 for response in responses if response.ok)
    assert completed == len(walk_requests), (
        f"only {completed}/{len(walk_requests)} completed under chaos"
    )
    assert [response.payload for response in responses] == reference
    assert plan.injections() > 0, "chaos run injected nothing"
    chaos_qps = WALK_QUERIES / elapsed
    benchmark.extra_info["chaos_qps"] = chaos_qps
    benchmark.extra_info["injections"] = float(plan.injections())
    benchmark.extra_info["retries"] = stats.get("counter.pool.retries", 0.0)
    benchmark(lambda: None)
    record_result(
        "F-resilience",
        {
            "op": "walk_queries",
            "mode": "chaos_crash_0.2",
            "entities_per_query": WALK_QUERY_ENTITIES,
            "queries_per_s": round(chaos_qps, 1),
            "injections": float(plan.injections()),
            "completion": 1.0,
        },
    )
