"""F-obs — what observability costs on the serving walk path.

PR 9 threads tracing hooks through every serving layer (gateway admit,
cache, scatter/gather, per-shard dispatch, worker execute).  Each hook
is one ``None`` check when no tracer is armed, so the *disarmed* tax
must be unmeasurable; the *armed* tax — real span objects, clock reads,
ring assembly — is measured at two altitudes and two sampling rates:

* **end-to-end** — walk queries through the HTTP front door.  Three
  arms interleave per query: ``disarmed``, ``armed_full``
  (``sample_every=1`` — every request assembles its ~14-span trace) and
  ``armed_sampled`` (``sample_every=8``, the production configuration
  the gateway's ``--trace-sample`` flag arms).  Full tracing of a
  sub-millisecond fan-out honestly costs a few percent — that is the
  tax head sampling exists to amortise, and the recorded
  ``armed_full`` row keeps that number visible.  The **gated** row is
  ``armed_sampled``: ≤5% over disarmed, with the bound carried in the
  row (``overhead_budget``) so ``check_regressions.py`` re-enforces it
  against every committed and fresh run.
* **service-level (informational)** — ``ServingService.serve`` called
  directly with full tracing, against the disarmed serve and the raw
  pre-observability engine path.  This is the most surgical measure of
  what the span machinery costs; a generous tripwire floor guards
  against pathological per-span regressions only.

The measurement protocol is bench_resilience's: arms interleave *per
query* in rotating order, each query keeps its minimum over the repeats,
and per-arm totals are the sum of those minima — whole-process drift
(frequency scaling, allocator growth) hits all arms symmetrically and
the min filters it out.  Parity is unconditional in every serve arm: an
armed tracer, sampled or not, must never change a payload byte.
"""

import asyncio
import time

import pytest

from benchmarks.conftest import check_floor, record_result
from repro.common import tracing
from repro.common.tracing import Tracer
from repro.kg.persistence import save_snapshot
from repro.serving.gateway import AsyncGateway, GatewayHTTPServer
from repro.serving.protocol import decode_response, encode_request
from repro.serving.requests import WalkRequest
from repro.serving.service import ServingService

WALK_QUERY_ENTITIES = 8
WALK_QUERIES = 60
#: The production head-sampling rate (``--trace-sample 8``) whose
#: overhead the ≤5% budget gates.
SAMPLE_EVERY = 8
# The end-to-end gate: armed-with-sampling tracing may cost at most 5%
# over disarmed on the HTTP walk path.  check_regressions.py re-enforces
# this bound on the committed baseline row (overhead_budget field).
OVERHEAD_BUDGET = 1.05
# Tripwires for the full-tracing arms: ~14 spans on a ~1ms request
# legitimately cost several percent (that is why production samples);
# these floors only catch pathological regressions in per-span cost.
FULL_TRACING_TRIPWIRE = 1.15
SERVICE_TRIPWIRE = 1.25


@pytest.fixture(scope="module")
def bundle_dir(bench_kg, tmp_path_factory):
    directory = tmp_path_factory.mktemp("observability-bundle")
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


def test_tracing_overhead_http_walk_path(benchmark, bundle_dir, walk_requests):
    """HTTP walk round-trips: disarmed vs full tracing vs sampled tracing."""
    tracing.disarm()
    tracer_full = Tracer(ring_capacity=WALK_QUERIES)
    tracer_sampled = Tracer(
        ring_capacity=WALK_QUERIES, sample_every=SAMPLE_EVERY
    )
    payloads = [encode_request(request) for request in walk_requests]
    results = {}
    sampled_trace_ids = {"with": 0, "without": 0}

    async def drive():
        with ServingService(bundle_dir, mode="inline") as svc:
            gateway = AsyncGateway(
                svc, max_concurrency=4, max_pending=4 * WALK_QUERIES
            )
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            try:

                async def post(body):
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(
                        (
                            f"POST /v1/query HTTP/1.1\r\nHost: bench\r\n"
                            f"Content-Length: {len(body)}\r\n\r\n"
                        ).encode()
                        + body
                    )
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    return raw.partition(b"\r\n\r\n")[2]

                reference = []
                for body in payloads:
                    response = decode_response(await post(body))
                    assert response.ok
                    reference.append(response.payload)

                async def run_disarmed(index):
                    return await post(payloads[index])

                def armed_runner(tracer):
                    async def run(index):
                        tracing.arm(tracer)
                        try:
                            return await post(payloads[index])
                        finally:
                            tracing.disarm()

                    return run

                arms = [
                    ("disarmed", run_disarmed),
                    ("armed_full", armed_runner(tracer_full)),
                    ("armed_sampled", armed_runner(tracer_sampled)),
                ]
                best = {
                    label: [float("inf")] * WALK_QUERIES for label, _ in arms
                }
                # 8 repeats (vs the service test's 6): each sample is one
                # socket round-trip, so the per-query min needs more draws
                # to converge through connection-level jitter.
                for repeat in range(8):
                    for index in range(WALK_QUERIES):
                        rotation = (repeat + index) % len(arms)
                        for label, run in arms[rotation:] + arms[:rotation]:
                            # Every arm must recompute: a cache hit would
                            # measure the dict probe, not the walk path.
                            svc._cache.clear()
                            start = time.perf_counter()
                            body = await run(index)
                            elapsed = time.perf_counter() - start
                            response = decode_response(body)
                            assert response.payload == reference[index]
                            if label == "armed_full":
                                assert response.trace_id
                            elif label == "armed_sampled":
                                key = "with" if response.trace_id else "without"
                                sampled_trace_ids[key] += 1
                            best[label][index] = min(
                                best[label][index], elapsed
                            )
                results.update(best)
            finally:
                await server.stop()
                gateway.close()

    asyncio.run(drive())

    # Neither armed arm may be vacuous: full tracing must have assembled
    # one trace per request, and the sampled tracer must have both
    # recorded ~1/8 of its requests and suppressed the rest.
    full = tracer_full.counters()
    assert full["traces_completed"] >= WALK_QUERIES
    assert full["traces_live"] == 0
    sampled = tracer_sampled.counters()
    assert sampled["traces_completed"] >= (8 * WALK_QUERIES) // SAMPLE_EVERY
    assert sampled["traces_sampled_out"] >= sampled["traces_completed"]
    assert sampled["traces_live"] == 0
    assert sampled_trace_ids["with"] > 0
    assert sampled_trace_ids["without"] > 0

    totals = {label: sum(minima) for label, minima in results.items()}
    qps = {label: WALK_QUERIES / total for label, total in totals.items()}
    overhead_full = totals["armed_full"] / totals["disarmed"]
    overhead_sampled = totals["armed_sampled"] / totals["disarmed"]
    benchmark.extra_info.update(
        {f"http_{label}_qps": value for label, value in qps.items()}
    )
    benchmark.extra_info["overhead_full_vs_disarmed"] = overhead_full
    benchmark.extra_info["overhead_sampled_vs_disarmed"] = overhead_sampled
    benchmark(lambda: None)
    record_result(
        "F-obs",
        {
            "op": "walk_queries_http",
            "config": "disarmed",
            "entities_per_query": WALK_QUERY_ENTITIES,
            "queries_per_s": round(qps["disarmed"], 1),
        },
    )
    record_result(
        "F-obs",
        {
            "op": "walk_queries_http",
            "config": "armed_full",
            "entities_per_query": WALK_QUERY_ENTITIES,
            "queries_per_s": round(qps["armed_full"], 1),
            "overhead_vs_disarmed": round(overhead_full, 3),
        },
    )
    record_result(
        "F-obs",
        {
            "op": "walk_queries_http",
            "config": "armed_sampled",
            "entities_per_query": WALK_QUERY_ENTITIES,
            "sample_every": SAMPLE_EVERY,
            "queries_per_s": round(qps["armed_sampled"], 1),
            "overhead_vs_disarmed": round(overhead_sampled, 3),
            "overhead_budget": OVERHEAD_BUDGET,
        },
    )
    check_floor(
        overhead_sampled <= OVERHEAD_BUDGET,
        f"armed tracing (1/{SAMPLE_EVERY} sampling) {overhead_sampled:.3f}x "
        f"slower than disarmed on the HTTP walk path "
        f"(> {OVERHEAD_BUDGET:.2f}x budget)",
    )
    check_floor(
        overhead_full <= FULL_TRACING_TRIPWIRE,
        f"full tracing {overhead_full:.3f}x slower than disarmed on the "
        f"HTTP walk path (> {FULL_TRACING_TRIPWIRE:.2f}x tripwire)",
    )


def test_tracing_overhead_service_path(benchmark, bundle_dir, walk_requests):
    """The informational service-level arms: seed-path vs disarmed vs armed.

    * **seed_path** — ``WorkerState._dispatch`` called directly: the raw
      per-request compute with no serving dispatch, no fault points, no
      tracing hooks.  This is the pre-observability engine path (it also
      answers all entities in a single call rather than a 4-shard
      fan-out, so it is an anchor, not a like-for-like floor).
    * **disarmed** — ``ServingService.serve`` with no tracer armed (the
      production default).
    * **armed** — the same serve under an armed unsampled
      :class:`Tracer` with the default bounded ring, assembling one
      complete ~13-span trace per request.
    """
    tracing.disarm()
    tracer = Tracer()
    with ServingService(
        bundle_dir, mode="inline"
    ) as plain, ServingService(bundle_dir, mode="inline") as traced:
        state = plain._pool.local_state
        reference = [plain.serve(request).payload for request in walk_requests]
        with tracing.armed(tracer):
            warm = [traced.serve(request).payload for request in walk_requests]
        # Parity is unconditional: an armed tracer must not change a
        # single byte of any answer.
        assert warm == reference

        def run_seed(request):
            return state._dispatch(request)

        def run_disarmed(request):
            return plain.serve(request).payload

        def run_armed(request):
            tracing.arm(tracer)
            try:
                return traced.serve(request).payload
            finally:
                tracing.disarm()

        arms = [
            ("seed_path", run_seed),
            ("disarmed", run_disarmed),
            ("armed", run_armed),
        ]
        best = {label: [float("inf")] * WALK_QUERIES for label, _ in arms}
        for repeat in range(6):
            plain._cache.clear()
            traced._cache.clear()
            for index, request in enumerate(walk_requests):
                rotation = (repeat + index) % len(arms)
                for label, run in arms[rotation:] + arms[:rotation]:
                    start = time.perf_counter()
                    payload = run(request)
                    elapsed = time.perf_counter() - start
                    if label != "seed_path":
                        assert payload == reference[index]
                    best[label][index] = min(best[label][index], elapsed)

    counters = tracer.counters()
    assert counters["traces_completed"] >= WALK_QUERIES
    assert counters["traces_live"] == 0

    totals = {label: sum(minima) for label, minima in best.items()}
    qps = {label: WALK_QUERIES / total for label, total in totals.items()}
    overhead_armed = totals["armed"] / totals["disarmed"]
    overhead_disarmed = totals["disarmed"] / totals["seed_path"]
    benchmark.extra_info.update(
        {f"{label}_qps": value for label, value in qps.items()}
    )
    benchmark.extra_info["overhead_armed_vs_disarmed"] = overhead_armed
    benchmark(lambda: None)
    record_result(
        "F-obs",
        {
            "op": "walk_queries_service",
            "config": "seed_path",
            "entities_per_query": WALK_QUERY_ENTITIES,
            "queries_per_s": round(qps["seed_path"], 1),
        },
    )
    record_result(
        "F-obs",
        {
            "op": "walk_queries_service",
            "config": "disarmed",
            "entities_per_query": WALK_QUERY_ENTITIES,
            "queries_per_s": round(qps["disarmed"], 1),
            "overhead_vs_seed_path": round(overhead_disarmed, 3),
        },
    )
    record_result(
        "F-obs",
        {
            "op": "walk_queries_service",
            "config": "armed",
            "entities_per_query": WALK_QUERY_ENTITIES,
            "queries_per_s": round(qps["armed"], 1),
            "overhead_vs_disarmed": round(overhead_armed, 3),
        },
    )
    check_floor(
        overhead_armed <= SERVICE_TRIPWIRE,
        f"armed tracing {overhead_armed:.3f}x slower than disarmed at the "
        f"service layer (> {SERVICE_TRIPWIRE:.2f}x tripwire)",
    )
