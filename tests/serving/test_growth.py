"""Live growth on the serving side: watcher swaps + the cache swap race."""

import threading

import pytest

from repro.common import ids
from repro.kg import SyntheticKGConfig, generate_kg
from repro.kg.deltas import GenerationPublisher
from repro.serving.cache import QueryCache
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
        assert cache.get(2, "req") == "answer"

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
