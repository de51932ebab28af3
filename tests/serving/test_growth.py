"""Live growth on the serving side: watcher swaps + the cache swap race."""

import asyncio
import threading
import time

import pytest

from repro.common import ids
from repro.kg import SyntheticKGConfig, generate_kg
from repro.kg.deltas import GenerationPublisher
from repro.serving.cache import QueryCache
from repro.serving.gateway import AsyncGateway
from repro.serving.growth import GenerationWatcher
from repro.serving.requests import NeighborhoodRequest
from repro.serving.service import ServingService
from repro.kg.triple import entity_fact

RELATED = ids.predicate_id("related_to")


@pytest.fixture()
def growing_world(tmp_path):
    """A live store, its publisher bundle, and an inline serving service."""
    kg = generate_kg(SyntheticKGConfig(seed=23, scale=0.05))
    bundle = tmp_path / "bundle"
    publisher = GenerationPublisher(kg.store, bundle)
    service = ServingService(bundle, mode="inline")
    yield kg.store, publisher, bundle, service
    service.close()


def _grow(store, publisher, round_no: int):
    """Add one new edge to the pivot entity and publish the generation."""
    entity_ids = sorted(store.entity_ids())
    pivot, other = entity_ids[0], entity_ids[1 + round_no]
    fact = entity_fact(
        pivot, RELATED, other, confidence=0.9, sources=("live",), updated_at=float(round_no)
    )
    store.add(fact)
    publisher.record(keys=[fact.key])
    info = publisher.publish()
    assert info is not None
    return pivot, info


class TestGenerationWatcher:
    def test_poll_adopts_new_generations(self, growing_world):
        store, publisher, bundle, service = growing_world
        watcher = GenerationWatcher(service, bundle, interval_s=0.01)
        assert watcher.poll_once() is None  # nothing new yet

        pivot, info = _grow(store, publisher, 0)
        adopted = watcher.poll_once()
        assert adopted == info.store_version == service.store_version
        assert watcher.swaps == 1

        # The served answer reflects the just-published edge.
        response = service.serve(NeighborhoodRequest(entities=(pivot,), hops=1))
        assert response.ok
        assert sorted(response.payload[0]) == sorted(store.neighbors(pivot))

    def test_background_thread_swaps(self, growing_world):
        store, publisher, bundle, service = growing_world
        swapped = threading.Event()
        with GenerationWatcher(
            service, bundle, interval_s=0.02, on_swap=lambda _v: swapped.set()
        ):
            _grow(store, publisher, 0)
            assert swapped.wait(timeout=10.0)
        assert service.store_version == publisher.tip_version

    def test_errors_are_contained(self, growing_world, tmp_path):
        _store, _publisher, _bundle, service = growing_world
        before = service.store_version
        watcher = GenerationWatcher(service, tmp_path / "nonexistent", interval_s=0.01)
        assert watcher.poll_once() is None
        assert watcher.errors == 0  # empty dir: no published version, no error
        (tmp_path / "nonexistent").mkdir()
        (tmp_path / "nonexistent" / "chain.json").write_text("{broken", encoding="utf-8")
        assert watcher.poll_once() is None
        assert watcher.errors == 1
        assert service.store_version == before  # kept serving the old generation


class TestSwapCacheRace:
    def test_no_cross_generation_cache_hit_under_concurrent_swaps(self, growing_world):
        """Satellite bugfix pin: swap generations under concurrent load and
        verify every response's payload matches the generation its envelope
        claims — a cross-generation cache hit would break the match."""
        store, publisher, bundle, service = growing_world
        pivot = sorted(store.entity_ids())[0]
        request = NeighborhoodRequest(entities=(pivot,), hops=1)

        # version -> the correct frozen answer for that generation.
        expected: dict[int, tuple] = {}

        def snapshot_expected():
            expected[store.version] = tuple(sorted(store.neighbors(pivot)))

        snapshot_expected()
        mismatches: list[tuple] = []
        failures: list[str] = []
        stop = threading.Event()

        def client():
            while not stop.is_set():
                response = service.serve(request)
                if not response.ok:
                    failures.append(response.error.code if response.error else "?")
                    continue
                answer = tuple(sorted(response.payload[0]))
                want = expected.get(response.store_version)
                # want can be None only if the envelope carries a version
                # we never published — that too is a mismatch.
                if want is None or answer != want:
                    mismatches.append((response.store_version, answer, want))

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for round_no in range(6):
                _grow(store, publisher, round_no)
                snapshot_expected()
                service.adopt_generation(bundle)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)

        assert not mismatches, mismatches[:5]
        assert not failures, failures[:5]
        assert service.store_version == publisher.tip_version


class TestLoopHitSwaps:
    """Hits answered on the gateway's event loop across generation swaps."""

    def test_first_read_after_a_swap_is_a_miss_under_the_new_version(self, growing_world):
        store, publisher, bundle, service = growing_world
        pivot = sorted(store.entity_ids())[0]
        request = NeighborhoodRequest(entities=(pivot,), hops=1)
        watcher = GenerationWatcher(service, bundle, interval_s=0.01)

        async def go():
            gateway = AsyncGateway(service, max_concurrency=2, max_pending=8)
            try:
                before = [await gateway.serve_async(request) for _ in range(2)]
                _grow(store, publisher, 0)
                assert watcher.poll_once() is not None
                after = [await gateway.serve_async(request) for _ in range(2)]
                return before, after
            finally:
                gateway.close()

        old_version = service.store_version
        old_answer = sorted(store.neighbors(pivot))
        before, after = asyncio.run(go())
        new_version = service.store_version
        assert new_version != old_version
        assert [(r.cached, r.store_version) for r in before] == [
            (False, old_version), (True, old_version)
        ]
        assert [(r.cached, r.store_version) for r in after] == [
            (False, new_version), (True, new_version)
        ]
        assert all(sorted(r.payload[0]) == old_answer for r in before)
        assert all(sorted(r.payload[0]) == sorted(store.neighbors(pivot)) for r in after)
        assert old_answer != sorted(store.neighbors(pivot))

    def test_loop_hits_never_cross_generations(self, growing_world):
        """Swaps on another thread while the loop answers hits: every
        envelope's store_version names the generation its payload (and
        the cache entry it came from) belongs to."""
        store, publisher, bundle, service = growing_world
        pivot = sorted(store.entity_ids())[0]
        request = NeighborhoodRequest(entities=(pivot,), hops=1)
        expected = {store.version: tuple(sorted(store.neighbors(pivot)))}
        stop = threading.Event()

        def swapper():
            try:
                for round_no in range(6):
                    _grow(store, publisher, round_no)
                    expected[store.version] = tuple(sorted(store.neighbors(pivot)))
                    service.adopt_generation(bundle)
            finally:
                stop.set()

        async def reader():
            gateway = AsyncGateway(service, max_concurrency=2, max_pending=8)
            responses = []
            try:
                while not stop.is_set():
                    responses.append(await gateway.serve_async(request))
                    # A hit never suspends: sleep so the swapper gets the GIL.
                    await asyncio.sleep(0.0005)
                responses.append(await gateway.serve_async(request))
            finally:
                gateway.close()
            return responses

        thread = threading.Thread(target=swapper)
        thread.start()
        try:
            responses = asyncio.run(reader())
        finally:
            thread.join(timeout=30.0)
        assert all(r.ok for r in responses)
        mismatches = [
            (r.store_version, r.cached)
            for r in responses
            if expected.get(r.store_version) != tuple(sorted(r.payload[0]))
        ]
        assert not mismatches, mismatches[:5]
        assert any(r.cached for r in responses)
        assert responses[-1].store_version == publisher.tip_version


    def test_miss_queued_across_swaps_needs_no_swap_retry(self, growing_world):
        """A miss probed on the loop, then queued for an executor slot while
        three generations land, is served under the newest one: the
        generation is pinned, and its clock started, when serve() takes
        the probe over."""
        store, publisher, bundle, service = growing_world
        entity_ids = sorted(store.entity_ids())
        request = NeighborhoodRequest(entities=(entity_ids[0],), hops=1)
        entered, release = threading.Event(), threading.Event()
        real_serve = service.serve

        def blocking_serve(request, **kwargs):
            if request.entities != (entity_ids[0],):
                entered.set()
                release.wait(timeout=10.0)
            return real_serve(request, **kwargs)

        service.serve = blocking_serve

        async def go():
            gateway = AsyncGateway(service, max_concurrency=1, max_pending=4)
            try:
                holder = asyncio.ensure_future(gateway.serve_async(
                    NeighborhoodRequest(entities=(entity_ids[-1],), hops=1)
                ))
                while not entered.is_set():
                    await asyncio.sleep(0.005)
                queued = asyncio.ensure_future(gateway.serve_async(request))
                await asyncio.sleep(0.05)  # probed on the loop, now queued
                for round_no in range(3):
                    _grow(store, publisher, round_no)
                    service.adopt_generation(bundle)
                released = time.perf_counter()
                release.set()
                answers = await holder, await queued
                return (*answers, (time.perf_counter() - released) * 1000.0)
            finally:
                release.set()
                gateway.close()

        holder, queued, since_release_ms = asyncio.run(go())
        assert holder.ok and queued.ok and not queued.cached
        # total_ms is time inside the service, not the wait for a slot.
        assert queued.timings["total_ms"] <= since_release_ms
        assert queued.store_version == publisher.tip_version
        assert sorted(queued.payload[0]) == sorted(store.neighbors(entity_ids[0]))
        assert service.stats().get("counter.serve.swap_retries", 0.0) == 0.0


class TestQueryCacheSwapGuard:
    def test_straggler_put_after_adopt_self_demotes(self):
        cache = QueryCache(capacity=16)
        cache.adopt_version(2)
        cache.put(1, "req", "old-answer")  # in-flight request that lost the race
        assert len(cache) == 0
        assert cache.get(1, "req") is None
        assert cache.get_stale("req") == (1, "old-answer")

    def test_current_version_put_is_accepted(self):
        cache = QueryCache(capacity=16)
        cache.adopt_version(2)
        cache.put(2, "req", "answer")
        assert cache.get(2, "req").payload == "answer"

    def test_demotion_keeps_newest_generation(self):
        cache = QueryCache(capacity=16)
        cache.adopt_version(3)
        cache.put(2, "req", "newer-old")
        cache.put(1, "req", "older-old")  # must not clobber the newer demotion
        assert cache.get_stale("req") == (2, "newer-old")

    def test_adopt_purges_existing_generations(self):
        cache = QueryCache(capacity=16)
        cache.put(1, "a", "r1")
        cache.put(1, "b", "r2")
        dropped = cache.adopt_version(2)
        assert dropped == 2
        assert len(cache) == 0
        assert cache.get_stale("a") == (1, "r1")
