"""QueryCache: versioned LRU with structural invalidation."""

import threading

import pytest

from repro.serving.cache import CacheEntry, QueryCache
from repro.serving.requests import WalkRequest


def walk(seed: int) -> WalkRequest:
    return WalkRequest(entities=("e",), seed=seed)


class TestLRU:
    def test_get_put_round_trip(self):
        cache = QueryCache(capacity=4)
        assert cache.get(1, walk(0)) is None
        cache.put(1, walk(0), ["result"])
        assert cache.get(1, walk(0)).payload == ["result"]

    def test_capacity_evicts_least_recently_used(self):
        cache = QueryCache(capacity=2)
        cache.put(1, walk(0), "a")
        cache.put(1, walk(1), "b")
        assert cache.get(1, walk(0)).payload == "a"  # refresh 0
        cache.put(1, walk(2), "c")  # evicts 1
        assert cache.get(1, walk(1)) is None
        assert cache.get(1, walk(0)).payload == "a"
        assert cache.get(1, walk(2)).payload == "c"

    def test_version_isolates_entries(self):
        cache = QueryCache(capacity=4)
        cache.put(1, walk(0), "v1")
        assert cache.get(2, walk(0)) is None
        cache.put(2, walk(0), "v2")
        assert cache.get(1, walk(0)).payload == "v1"
        assert cache.get(2, walk(0)).payload == "v2"

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            QueryCache(capacity=0)


class TestGenerationInvalidation:
    def test_adopt_version_purges_other_generations(self):
        cache = QueryCache(capacity=8)
        cache.put(1, walk(0), "old")
        cache.put(1, walk(1), "old2")
        cache.put(2, walk(0), "new")
        dropped = cache.adopt_version(2)
        assert dropped == 2
        assert len(cache) == 1
        assert cache.get(2, walk(0)).payload == "new"
        assert cache.get(1, walk(0)) is None

    def test_adopt_same_version_is_noop(self):
        cache = QueryCache(capacity=8)
        cache.put(3, walk(0), "keep")
        assert cache.adopt_version(3) == 0
        assert cache.get(3, walk(0)).payload == "keep"


class TestCounters:
    def test_hit_rate(self):
        cache = QueryCache(capacity=4)
        cache.get(1, walk(0))  # miss
        cache.put(1, walk(0), "x")
        cache.get(1, walk(0))  # hit
        cache.get(1, walk(0))  # hit
        assert cache.hit_rate == pytest.approx(2 / 3)
        assert cache.hits == 2
        assert cache.misses == 1

    def test_eviction_counter(self):
        cache = QueryCache(capacity=1)
        cache.put(1, walk(0), "a")
        cache.put(1, walk(1), "b")
        assert cache.evictions == 1


class TestThreadSafety:
    def test_concurrent_mixed_traffic(self):
        cache = QueryCache(capacity=64)
        errors: list[BaseException] = []

        def hammer(worker: int) -> None:
            try:
                for i in range(300):
                    request = walk(i % 40)
                    value = cache.get(1, request)
                    if value is not None:
                        assert value.payload == f"r{i % 40}"
                    cache.put(1, request, f"r{i % 40}")
                    if i % 50 == 0:
                        cache.adopt_version(1)
            except BaseException as exc:  # propagated to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64


class TestWireMemo:
    """A payload's memoised wire JSON lives and dies with its cache entry."""

    def test_entry_carries_the_payload(self):
        cache = QueryCache(capacity=4)
        cache.put(1, walk(0), ["result"])
        entry = cache.get(1, walk(0))
        assert isinstance(entry, CacheEntry)
        assert entry.payload == ["result"] and entry.wire is None

    def test_eviction_drops_the_memo(self):
        cache = QueryCache(capacity=1)
        cache.put(1, walk(0), ["a"])
        old = cache.get(1, walk(0))
        old.wire = b'["a"]'
        cache.put(1, walk(1), ["b"])  # evicts walk(0) with its memo
        assert cache.get(1, walk(0)) is None
        cache.put(1, walk(0), ["a"])
        fresh = cache.get(1, walk(0))
        assert fresh is not old and fresh.wire is None

    def test_generation_purge_drops_the_memo(self):
        cache = QueryCache(capacity=4)
        cache.put(1, walk(0), ["a"])
        old = cache.get(1, walk(0))
        old.wire = b'["a"]'
        cache.adopt_version(2)
        # Demoted as the bare payload: the stale store keeps no wire JSON.
        version, payload = cache.get_stale(walk(0))
        assert version == 1 and payload == ["a"] and not isinstance(payload, CacheEntry)
        cache.put(2, walk(0), ["a"])
        assert cache.get(2, walk(0)).wire is None

    def test_generation_purge_counts_no_hits(self):
        cache = QueryCache(capacity=4)
        cache.put(1, walk(0), "a")
        cache.put(1, walk(1), "b")
        assert cache.get(1, walk(0)).payload == "a"
        hits, misses = cache.hits, cache.misses
        assert cache.adopt_version(2) == 2
        assert (cache.hits, cache.misses) == (hits, misses)
