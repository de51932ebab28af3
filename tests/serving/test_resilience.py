"""Chaos suite: the serving stack under deterministic fault injection.

The headline invariant (the ISSUE's acceptance bar): with worker crashes
injected at rate 0.2 into a subprocess fleet, a mixed workload of every
request type still completes 100%, and every payload is *byte-identical*
to a healthy run — supervision respawns replicas from the same pinned
``WorkerConfig`` over the same immutable bundle, and retries are pure
re-reads.  Around it: unit coverage for the fault plan, retry policy and
circuit breaker primitives, the degraded-envelope and serve-stale paths,
batcher poison isolation, gateway shedding/healthz, and a protocol fuzz
pass (malformed bytes must never raise anything but ``ProtocolError``).
"""

from __future__ import annotations

import asyncio
import os
import pickle
import random
import time

import pytest

from repro.serving.batcher import MicroBatcher
from repro.serving.faults import (
    SITE_WORKER_EXECUTE,
    SITE_WORKER_RESULT,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedIOError,
    armed,
)
from repro.serving.gateway import AsyncGateway, GatewayHTTPServer
from repro.serving.protocol import (
    ProtocolError,
    decode_request_envelope,
    decode_response,
    encode_request,
    encode_response,
)
from repro.serving.requests import (
    STATUS_DEGRADED,
    AnnotateRequest,
    FactRankRequest,
    KnnRequest,
    NeighborhoodRequest,
    RelatedRequest,
    SimilarityRequest,
    VerifyRequest,
    WalkRequest,
)
from repro.serving.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
    ShardResultError,
    TransientServingError,
    is_retryable,
)
from repro.serving.service import ServingService


def mixed_workload(service: ServingService, entities: list[str], texts: list[str]):
    """One request of every wire type, derived from the live bundle."""
    state = service._pool.local_state
    suite = state.embedding_suite()
    dataset = suite.trained.dataset
    triples = [dataset.decode(*map(int, row)) for row in dataset.triples[:3]]
    return [
        WalkRequest(entities=tuple(entities[:6]), walk_length=4, walks_per_entity=2, seed=3),
        NeighborhoodRequest(entities=tuple(entities[:6]), hops=1),
        RelatedRequest(entities=tuple(entities[:4]), k=5),
        AnnotateRequest(texts=(texts[0],)),
        FactRankRequest(entities=(triples[0][0],), predicate=dataset.relations[0]),
        VerifyRequest(candidates=tuple(triples)),
        SimilarityRequest(pairs=((dataset.entities[0], dataset.entities[1]),)),
        KnnRequest(entities=(dataset.entities[0], dataset.entities[1]), k=3),
    ]


# -- fault plan ----------------------------------------------------------------


class TestFaultPlan:
    def test_rate_decisions_are_deterministic(self):
        spec = FaultSpec(SITE_WORKER_EXECUTE, "io_error", rate=0.5)
        decisions = []
        for _ in range(2):
            plan = FaultPlan((spec,), seed=9)
            decisions.append(
                [plan.decide(SITE_WORKER_EXECUTE) is not None for _ in range(50)]
            )
        assert decisions[0] == decisions[1]
        fired = sum(decisions[0])
        assert 0 < fired < 50  # a real mix at rate 0.5

    def test_reseeded_changes_schedule_and_resets_counters(self):
        spec = FaultSpec(SITE_WORKER_EXECUTE, "crash", rate=0.5)
        plan = FaultPlan((spec,), seed=3)
        base = [plan.decide(SITE_WORKER_EXECUTE) is not None for _ in range(40)]
        respawned = plan.reseeded(1)
        assert respawned.calls(SITE_WORKER_EXECUTE) == 0
        other = [
            respawned.decide(SITE_WORKER_EXECUTE) is not None for _ in range(40)
        ]
        assert base != other  # a crashed call does not replay forever

    def test_at_calls_and_max_injections(self):
        plan = FaultPlan(
            (FaultSpec(SITE_WORKER_EXECUTE, "io_error", at_calls=(2, 3, 4), max_injections=2),),
        )
        hits = [plan.decide(SITE_WORKER_EXECUTE) is not None for _ in range(5)]
        assert hits == [False, True, True, False, False]
        assert plan.injections() == 2

    def test_request_type_filter(self):
        plan = FaultPlan(
            (FaultSpec(SITE_WORKER_EXECUTE, "io_error", rate=1.0, request_type="walk"),),
        )
        assert plan.decide(SITE_WORKER_EXECUTE, "knn") is None
        assert plan.decide(SITE_WORKER_EXECUTE, "walk") is not None

    def test_pickle_ships_rules_not_counters(self):
        plan = FaultPlan((FaultSpec(SITE_WORKER_EXECUTE, "crash", rate=1.0),), seed=5)
        plan.decide(SITE_WORKER_EXECUTE)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.specs == plan.specs and clone.seed == plan.seed
        assert clone.injections() == 0 and clone.calls(SITE_WORKER_EXECUTE) == 0

    def test_armed_restores_previous_plan(self):
        from repro.serving import faults

        outer = FaultPlan((FaultSpec(SITE_WORKER_EXECUTE, "slow", rate=1.0, delay_s=0.0),))
        inner = FaultPlan((FaultSpec(SITE_WORKER_EXECUTE, "slow", rate=1.0, delay_s=0.0),))
        with armed(outer):
            with armed(inner):
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
        assert faults.active_plan() is None

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(SITE_WORKER_EXECUTE, "explode", rate=0.5)
        with pytest.raises(ValueError):
            FaultSpec(SITE_WORKER_EXECUTE, "crash")  # no rate, no schedule
        with pytest.raises(ValueError):
            FaultSpec(SITE_WORKER_EXECUTE, "crash", rate=1.5)


# -- retry policy --------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_bounded_and_deterministic(self):
        policy = RetryPolicy(backoff_base_s=0.01, backoff_max_s=0.04, jitter=0.5)
        for n in range(1, 6):
            delay = policy.backoff_s(n, key="k")
            assert 0.0 < delay <= 0.04
            assert delay == policy.backoff_s(n, key="k")
        assert policy.backoff_s(1, key="a") != policy.backoff_s(1, key="b")

    def test_retryable_classification(self):
        assert is_retryable(InjectedCrash("x"))
        assert is_retryable(InjectedIOError("x"))
        assert is_retryable(TransientServingError("x"))
        assert is_retryable(ShardResultError("x"))
        assert is_retryable(CircuitOpenError("pool"))
        assert is_retryable(OSError("x"))
        assert not is_retryable(ValueError("x"))
        assert not is_retryable(TypeError("x"))


# -- circuit breaker -----------------------------------------------------------


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            "test",
            failure_threshold=0.5,
            min_volume=4,
            window=8,
            open_duration_s=10.0,
            clock=lambda: clock["now"],
            **kwargs,
        )
        return breaker, clock

    def trip(self, breaker):
        for _ in range(4):
            breaker.record_failure()

    def test_opens_past_failure_rate(self):
        breaker, _clock = self.make()
        breaker.record_success()
        assert breaker.state == CLOSED
        self.trip(breaker)
        assert breaker.state == OPEN
        assert not breaker.allow()
        with pytest.raises(CircuitOpenError):
            breaker.check()

    def test_half_open_probe_closes_on_success(self):
        breaker, clock = self.make()
        self.trip(breaker)
        clock["now"] = 10.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one probe admitted
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker, clock = self.make()
        self.trip(breaker)
        clock["now"] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        # the re-open restarts the cooldown from the failure time
        clock["now"] = 19.0
        assert breaker.state == OPEN
        clock["now"] = 20.0
        assert breaker.state == HALF_OPEN

    def test_snapshot_counts_transitions(self):
        breaker, clock = self.make()
        self.trip(breaker)
        clock["now"] = 10.0
        breaker.allow()
        breaker.record_success()
        snap = breaker.snapshot()
        assert snap["state"] == CLOSED
        assert snap["transitions"] == 3.0  # closed->open->half_open->closed
        assert snap["transitions.closed->open"] == 1.0


# -- degradation at the service layer ------------------------------------------


class TestDegradation:
    def test_one_dead_shard_degrades_instead_of_failing(self, bundle_dir, seed_entities, monkeypatch):
        with ServingService(bundle_dir, mode="inline", num_workers=3) as service:
            request = NeighborhoodRequest(entities=tuple(seed_entities[:8]), hops=1)
            healthy = service.serve(request)
            assert healthy.ok

            # Pick a real worker's part and kill it deterministically: every
            # sub-request containing its entities fails, replicas or not —
            # the retry budget must exhaust and degrade.
            router = service._router
            parts = router.scatter_request(request)
            dead_positions, dead_part = parts[0]
            dead = set(dead_part.entities)
            state = service._pool.local_state
            original = state._dispatch

            def flaky(req):
                if dead & set(getattr(req, "entities", ())):
                    raise TransientServingError("replica down")
                return original(req)

            monkeypatch.setattr(state, "_dispatch", flaky)
            service._cache.clear()
            response = service.serve(request)
            assert response.status == STATUS_DEGRADED
            assert response.degraded and not response.ok
            assert response.error is not None
            assert response.error.code == "unavailable"
            assert response.error.retryable
            assert response.error.exception_type == "TransientServingError"
            assert response.resilience["failed_entities"] == float(len(dead_positions))
            for position, value in enumerate(response.payload):
                if position in dead_positions:
                    assert value is None
                else:
                    assert value == healthy.payload[position]
            assert service.stats()["counter.serve.degraded"] >= 1.0

    def test_degraded_envelope_roundtrips_the_wire(self, bundle_dir, seed_entities, monkeypatch):
        with ServingService(bundle_dir, mode="inline", num_workers=3) as service:
            request = RelatedRequest(entities=tuple(seed_entities[:6]), k=4)
            parts = service._router.scatter_request(request)
            dead = set(parts[0][1].entities)
            state = service._pool.local_state
            original = state._dispatch

            def flaky(req):
                if dead & set(getattr(req, "entities", ())):
                    raise TransientServingError("replica down")
                return original(req)

            monkeypatch.setattr(state, "_dispatch", flaky)
            response = service.serve(request)
            assert response.status == STATUS_DEGRADED
            decoded = decode_response(encode_response(response))
            assert decoded.status == STATUS_DEGRADED
            assert decoded.payload == response.payload  # None holes survive
            assert decoded.error.retryable
            assert decoded.resilience == response.resilience

    def test_full_failure_serves_stale_previous_generation(self, bundle_dir, seed_entities, monkeypatch):
        with ServingService(bundle_dir, mode="inline") as service:
            request = NeighborhoodRequest(entities=tuple(seed_entities[:4]), hops=1)
            fresh = service.serve(request)
            assert fresh.ok
            old_version = service.store_version
            # A generation swap demotes the cached entry to the stale store.
            service._cache.adopt_version(old_version + 1)
            state = service._pool.local_state

            def down(_req):
                raise TransientServingError("fleet down")

            monkeypatch.setattr(state, "_dispatch", down)
            response = service.serve(request)
            assert response.status == STATUS_DEGRADED
            assert response.payload == fresh.payload
            assert response.resilience["stale"] is True
            assert response.resilience["stale_version"] == float(old_version)
            assert service.stats()["counter.serve.stale_served"] >= 1.0

    def test_bare_dispatch_skips_resilience(self, bundle_dir, seed_entities, monkeypatch):
        with ServingService(
            bundle_dir, mode="inline", resilient=False
        ) as service:
            assert service.retry_policy.max_attempts == 1
            state = service._pool.local_state
            calls = []
            original = state._dispatch

            def flaky(req):
                calls.append(1)
                raise TransientServingError("down")

            monkeypatch.setattr(state, "_dispatch", flaky)
            request = NeighborhoodRequest(entities=tuple(seed_entities[:4]), hops=1)
            response = service.serve(request)
            assert not response.ok and response.status == "error"
            assert len(calls) == 1  # one part for one worker, no retries
            monkeypatch.setattr(state, "_dispatch", original)

    def test_sustained_failure_trips_the_pool_breaker(self, bundle_dir, seed_entities):
        plan = FaultPlan(
            (FaultSpec(SITE_WORKER_EXECUTE, "io_error", rate=1.0),), seed=1
        )
        with ServingService(bundle_dir, mode="inline") as service:
            request = NeighborhoodRequest(entities=tuple(seed_entities[:4]), hops=1)
            with armed(plan):
                response = service.serve(request)
            assert not response.ok  # everything failed, nothing stale
            stats = service.stats()
            assert stats["pool.breaker.transitions"] >= 1.0
            assert stats["pool.breaker.state"] in (OPEN, HALF_OPEN)
            assert stats["counter.pool.failures"] >= 4.0

    def test_corrupt_shard_results_are_retried(self, bundle_dir, seed_entities):
        plan = FaultPlan(
            (FaultSpec(SITE_WORKER_RESULT, "corrupt", rate=0.6, max_injections=3),),
            seed=2,
        )
        with ServingService(bundle_dir, mode="inline") as service:
            request = NeighborhoodRequest(entities=tuple(seed_entities[:8]), hops=1)
            healthy = service.serve(request)
            service._cache.clear()
            with armed(plan):
                response = service.serve(request)
            assert plan.injections() > 0
            assert response.ok
            assert response.payload == healthy.payload
            assert service.stats()["counter.pool.corrupt_results"] >= 1.0

    def test_truncated_whole_request_results_are_retried(self, bundle_dir, sample_texts):
        """Whole-request families validate their result length too: a
        truncated worker reply is retried, never answered or cached."""
        with ServingService(bundle_dir, mode="inline") as service:
            suite = service._pool.local_state.embedding_suite()
            dataset = suite.trained.dataset
            triples = [dataset.decode(*map(int, row)) for row in dataset.triples[:3]]
            pairs = tuple(zip(dataset.entities[:3], dataset.entities[3:6]))
            requests = [
                SimilarityRequest(pairs=pairs),
                VerifyRequest(candidates=tuple(triples)),
                AnnotateRequest(texts=tuple(sample_texts[:3])),
            ]
            healthy = [encode_response(service.serve(r)) for r in requests]
            service._cache.clear()
            for request, expected in zip(requests, healthy):
                plan = FaultPlan(
                    (FaultSpec(SITE_WORKER_RESULT, "corrupt", rate=1.0, max_injections=1),),
                    seed=5,
                )
                with armed(plan):
                    response = service.serve(request)
                assert plan.injections() == 1
                assert response.ok, type(request).__name__
                assert decode_response(encode_response(response)).payload == (
                    decode_response(expected).payload
                ), type(request).__name__
                if request.cacheable():
                    cached = service._cache.get(service.store_version, request)
                    assert cached.payload == response.payload, type(request).__name__
            assert service.stats()["counter.pool.corrupt_results"] == 3.0


# -- batcher poison isolation ---------------------------------------------------


class TestBatcherPoisonIsolation:
    def test_poisoned_text_fails_alone(self):
        def flush(texts):
            if "poison" in texts:
                raise ValueError("bad text")
            return [t.upper() for t in texts]

        batcher = MicroBatcher(flush, max_batch=8)
        futures = [batcher.submit(t) for t in ("a", "poison", "b")]
        batcher.flush()
        assert futures[0].result() == "A"
        assert futures[2].result() == "B"
        with pytest.raises(ValueError):
            futures[1].result()
        assert batcher.metrics.snapshot()["counter.batcher.batch_poisoned"] == 1.0

    def test_single_text_batch_fails_directly(self):
        def flush(texts):
            raise ValueError("bad")

        batcher = MicroBatcher(flush, max_batch=8)
        future = batcher.submit("only")
        batcher.flush()
        with pytest.raises(ValueError):
            future.result()
        assert "counter.batcher.batch_poisoned" not in batcher.metrics.snapshot()


# -- protocol fuzz --------------------------------------------------------------


class TestProtocolFuzz:
    def test_decode_request_never_raises_past_protocol_error(self):
        rng = random.Random(2023)
        valid = encode_request(
            WalkRequest(entities=("e1", "e2"), walk_length=4, walks_per_entity=2)
        )
        candidates: list[bytes] = []
        # truncations of a valid encoding at every offset
        candidates.extend(valid[:cut] for cut in range(len(valid)))
        # random garbage of assorted lengths
        candidates.extend(
            bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
            for _ in range(200)
        )
        # structurally-wrong JSON
        candidates.extend(
            [
                b"null",
                b"[]",
                b'"walk"',
                b"{}",
                b'{"protocol": 1}',
                b'{"protocol": 1, "type": "walk"}',
                b'{"protocol": 1, "type": "nope", "body": {}}',
                b'{"protocol": "x", "type": "walk", "body": {}}',
                b'{"protocol": 1, "type": "walk", "body": {"entities": 3}}',
                b'{"protocol": 1, "type": "walk", "body": {"entities": ["a"], "walk_length": "x"}}',
                b'{"protocol": 1, "type": "annotate", "body": {"texts": [1, 2]}}',
                b'{"protocol": 1, "type": "verify", "body": {"candidates": [["s", "p"]]}}',
                b'\xff\xfe{"protocol": 1}',
            ]
        )
        decoded = 0
        for blob in candidates:
            try:
                decode_request_envelope(blob)
                decoded += 1
            except ProtocolError:
                continue
        # only the untruncated prefix (the full valid payload) may decode
        assert decoded <= 1

    def test_decode_response_rejects_garbage_structurally(self):
        for blob in (b"", b"{", b'{"status": "ok"}', b"[1,2,3]"):
            with pytest.raises(ProtocolError):
                decode_response(blob)


# -- gateway: shedding and health ----------------------------------------------


class TestGatewayResilience:
    def test_shedding_drops_cheap_classes_first(self, bundle_dir, seed_entities):
        async def scenario(service):
            gateway = AsyncGateway(
                service, max_concurrency=2, max_pending=8, shed_fraction=0.5
            )
            try:
                gateway._pending = 4  # inside the shed band, below the hard limit
                cheap = WalkRequest(entities=(seed_entities[0],), seed=1)
                shed = await gateway.serve_async(cheap)
                assert not shed.ok and shed.error.code == "overloaded"
                assert "shedding" in shed.error.message
                expensive = FactRankRequest(entities=(seed_entities[0],), predicate="p0")
                served = await gateway.serve_async(expensive)
                assert served.error is None or served.error.code != "overloaded"
                gateway._pending = 8  # at the hard limit everything rejects
                rejected = await gateway.serve_async(expensive)
                assert not rejected.ok and rejected.error.code == "overloaded"
                assert gateway.metrics.snapshot()["counter.gateway.shed"] == 1.0
            finally:
                gateway._pending = 0
                gateway.close()

        with ServingService(bundle_dir, mode="inline") as service:
            asyncio.run(scenario(service))

    def test_healthz_reports_fleet_and_breakers(self, bundle_dir):
        import json as jsonlib

        async def scenario(service):
            gateway = AsyncGateway(service, max_concurrency=2, max_pending=8)
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            try:
                status, body = await _http_get(host, port, "/healthz")
                health = jsonlib.loads(body)
                assert status.endswith("200 OK")
                assert health["status"] == "ok"
                assert health["live_workers"] == 1
                assert health["mode"] == "inline"
                assert health["breakers"]["pool"] == CLOSED
                # Trip every breaker: all-open must flip /healthz to 503.
                for _ in range(4):
                    service._pool.breaker.record_failure()
                status, body = await _http_get(host, port, "/healthz")
                health = jsonlib.loads(body)
                assert "503" in status
                assert health["status"] == "unhealthy"
                assert health["breakers"]["pool"] == OPEN
            finally:
                await server.stop()
                gateway.close()

        with ServingService(bundle_dir, mode="inline") as service:
            asyncio.run(scenario(service))


async def _http_get(host: str, port: int, path: str) -> tuple[str, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode("latin-1"), payload


# -- the chaos invariant --------------------------------------------------------


class TestChaosInvariant:
    @pytest.fixture(scope="class")
    def healthy_payloads(self, bundle_dir, seed_entities, sample_texts):
        with ServingService(bundle_dir, mode="inline") as service:
            workload = mixed_workload(service, seed_entities, sample_texts)
            responses = [service.serve(request) for request in workload]
            assert all(response.ok for response in responses)
            return workload, [encode_response(r) for r in responses]

    def test_process_fleet_survives_crash_rate_0_2(
        self, bundle_dir, healthy_payloads
    ):
        """The acceptance bar: crash rate 0.2 in a subprocess fleet, a
        mixed workload of all 8 types, 100% completion, byte-identical
        payloads, respawns observed."""
        workload, healthy = healthy_payloads
        plan = FaultPlan(
            (FaultSpec(SITE_WORKER_EXECUTE, "crash", rate=0.2, max_injections=4),),
            seed=17,
        )
        with armed(plan):
            with ServingService(
                bundle_dir,
                mode="process",
                num_workers=2,
                cache_capacity=1,  # no cache assists: every answer recomputed
            ) as service:
                responses = [service.serve(request) for request in workload]
                stats = service.stats()
        assert all(response.ok for response in responses), [
            (type(w).__name__, r.status) for w, r in zip(workload, responses) if not r.ok
        ]
        for request, response, expected in zip(workload, responses, healthy):
            got = decode_response(encode_response(response))
            want = decode_response(expected)
            assert got.payload == want.payload, type(request).__name__
        assert stats["counter.pool.respawns"] >= 1.0
        assert stats["counter.pool.retries"] >= 1.0

    def test_real_worker_kill_is_survived(self, bundle_dir, seed_entities):
        """Not an injected exception: SIGKILL a live child mid-fleet."""
        import signal

        with ServingService(
            bundle_dir, mode="process", num_workers=1
        ) as service:
            request = NeighborhoodRequest(entities=tuple(seed_entities[:4]), hops=1)
            before = service.serve(request)
            assert before.ok
            processes = [worker.process for worker in service._pool._executor._workers]
            for process in processes:
                os.kill(process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while any(p.is_alive() for p in processes):
                if time.monotonic() > deadline:  # pragma: no cover
                    pytest.fail("killed child did not exit")
                time.sleep(0.02)
            service._cache.clear()
            after = service.serve(request)
            assert after.ok
            assert after.payload == before.payload
            assert service.stats()["counter.pool.respawns"] >= 1.0

    def test_inline_mode_survives_crashes_identically(self, bundle_dir, healthy_payloads):
        workload, healthy = healthy_payloads
        plan = FaultPlan(
            (FaultSpec(SITE_WORKER_EXECUTE, "crash", rate=0.2, max_injections=6),),
            seed=23,
        )
        with armed(plan):
            with ServingService(
                bundle_dir,
                mode="inline",
                num_workers=2,
                cache_capacity=1,
            ) as service:
                responses = [service.serve(request) for request in workload]
        assert all(response.ok for response in responses)
        for response, expected in zip(responses, healthy):
            assert (
                decode_response(encode_response(response)).payload
                == decode_response(expected).payload
            )
