"""Versioned LRU result cache for the serving layer.

Keys are ``(store_version, scope, request)`` — requests are frozen
dataclasses, so the triple hashes directly.  Versioning makes
invalidation structural: results computed against one snapshot
generation can never answer a query against another, and
:meth:`QueryCache.adopt_version` purges every entry
of older generations the moment a new bundle is adopted (entries would
otherwise merely age out of the LRU).

The storage mechanism is :class:`repro.common.kvstore.MemoryKVStore` —
the same thread-safe LRU the annotation layer's §3.2 KV cache uses —
with versioned keying and the generation purge layered on top.  Hit,
miss and eviction accounting stays in the store (one source of truth);
the registry only records generation invalidations.

Cached values are returned by reference and must be treated as read-only
— the serving facade hands them straight to clients, exactly like the
mmap-backed arrays underneath.  Each live entry is a :class:`CacheEntry`:
the payload plus, once a hit has been encoded, the payload's wire JSON,
so a repeated hit splices those bytes into its envelope instead of
re-encoding the payload.  The wire JSON lives and dies with its entry:
eviction, demotion to the stale store and a generation purge all drop it.

Serve-stale-on-error: when a generation swap demotes entries, the most
recent result per request survives in a bounded *stale* store instead of
vanishing.  :meth:`QueryCache.get_stale` is the degradation path's last
resort — a previous-generation answer beats a 500, and the serving
envelope flags it ``degraded`` with the stale ``store_version`` so
clients know exactly what they got.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.common import tracing
from repro.common.kvstore import MemoryKVStore
from repro.common.metrics import MetricsRegistry

_SENTINEL = object()


class CacheEntry:
    """One live cache entry: the result and its lazily filled wire JSON.

    ``wire`` is ``None`` until the first hit on the entry is encoded;
    :func:`~repro.serving.protocol.encode_response` then stores the
    payload's canonical JSON (UTF-8 bytes) here for every later hit.
    """

    __slots__ = ("payload", "wire")

    def __init__(self, payload: Any) -> None:
        self.payload = payload
        self.wire: bytes | None = None


class QueryCache:
    """Thread-safe LRU over ``(store_version, scope, request)`` keys.

    The ``tenant`` scope is ``None`` for the shared graph and
    ``(tenant_id, tenant_version)`` for a tenant overlay, so a tenant
    write invalidates that tenant's entries structurally, exactly like a
    shared generation swap does, and two tenants never collide even on
    identical requests.
    Stale fallbacks ignore the *shared* generation by design but keep the
    full scope: only an answer over the tenant's current personal data
    may serve degraded (a deleted record never comes back that way).
    """

    def __init__(
        self,
        capacity: int = 2048,
        metrics: MetricsRegistry | None = None,
        stale_capacity: int = 256,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if stale_capacity < 0:
            raise ValueError(f"stale_capacity must be >= 0, got {stale_capacity}")
        self.capacity = capacity
        self.stale_capacity = stale_capacity
        self.metrics = metrics or MetricsRegistry("query-cache")
        self._store = MemoryKVStore(capacity=capacity)
        # stale key -> (store_version, value): the newest demoted result
        # per request, kept for serve-stale-on-error (0 disables it).
        self._stale = MemoryKVStore(capacity=max(stale_capacity, 1))
        # The generation this cache currently accepts live writes for;
        # None until the first adopt_version.  Writes tagged with any
        # other version demote straight to the stale store — see put().
        self._adopted_version: int | None = None

    @staticmethod
    def _family(request: Hashable) -> str:
        return getattr(type(request), "wire_type", None) or type(request).__name__

    def get(self, version: int, request: Hashable, tenant=None) -> CacheEntry | None:
        """The :class:`CacheEntry` (the result and its memoised wire JSON),
        or ``None`` on a miss.

        ``tenant`` is a ``(tenant_id, tenant_version)`` pair scoping the
        entry to one tenant overlay generation, or ``None`` for the
        shared graph.  Aggregate hit/miss accounting lives in the backing
        store (one source of truth); read it via
        :attr:`hits`/:attr:`misses`/:attr:`hit_rate`.  Per-request-family
        counters land in the registry (``cache.hits.<wire_type>`` /
        ``cache.misses.<wire_type>``) for the /metrics exposition.
        """
        entry = self._store.get((version, tenant, request))
        family = self._family(request)
        self.metrics.incr(
            f"cache.misses.{family}" if entry is None else f"cache.hits.{family}"
        )
        return entry

    def put(self, version: int, request: Hashable, value: Any, tenant=None) -> None:
        """Insert a result, evicting the least-recently-used past capacity.

        A write tagged with a generation other than the adopted one — an
        in-flight request that lost a race with :meth:`adopt_version` —
        never lands in the live store: it demotes straight to the stale
        store (newest generation per request wins), closing the window in
        which a straggling old-generation write could be re-read by a
        request that captured the old version before the swap.
        """
        adopted = self._adopted_version
        if adopted is not None and version != adopted:
            self.metrics.incr("cache.swap_races")
            self._demote(version, request, value, tenant)
            return
        self._store.put((version, tenant, request), CacheEntry(value))

    def _demote(self, version: int, request: Hashable, value: Any, tenant=None) -> None:
        """Move one entry into the stale store if it is the newest there."""
        if self.stale_capacity == 0:
            return
        key = (tenant, request)
        existing = self._stale.get(key, _SENTINEL)
        if existing is _SENTINEL or existing[0] < version:
            self._stale.put(key, (version, value))

    def get_stale(self, request: Hashable, tenant=None) -> tuple[int, Any] | None:
        """The newest demoted ``(store_version, result)`` for ``request``.

        The degradation path's last resort: consulted only after fresh
        compute failed past its retry budget.  Returns ``None`` when no
        previous generation ever answered this request (or stale serving
        is disabled).  Tenant-scoped lookups only ever see answers
        demoted from the same ``(tenant_id, tenant_version)``.
        """
        if self.stale_capacity == 0:
            return None
        family = self._family(request)
        entry = self._stale.get((tenant, request), _SENTINEL)
        if entry is _SENTINEL:
            self.metrics.incr("cache.stale_misses")
            self.metrics.incr(f"cache.stale_misses.{family}")
            return None
        self.metrics.incr("cache.stale_hits")
        self.metrics.incr(f"cache.stale_hits.{family}")
        tracing.event("cache.stale_hit", store_version=entry[0])
        return entry

    def adopt_version(self, version: int) -> int:
        """Drop every entry not built at ``version``; returns count dropped.

        Called when the service adopts a new snapshot generation — stale
        generations must free their memory immediately, not linger until
        LRU pressure pushes them out.

        The adopted version is published *before* the purge sweeps, so a
        put racing this call either lands before a sweep (and is swept)
        or observes the new version and self-demotes (:meth:`put`); a
        second sweep after the first closes the remaining interleaving.
        Either way no old-generation entry survives in the live store.

        Dropped entries are *demoted*, not lost: the newest result per
        request moves into the bounded stale store for
        serve-stale-on-error (:meth:`get_stale`), without its wire JSON.
        The sweep neither counts as hits nor refreshes LRU order.
        """
        self._adopted_version = version
        dropped = 0
        for _sweep in range(2):
            stale = [key for key in self._store.keys() if key[0] != version]
            for key in stale:
                found = self._store.pop(key, _SENTINEL)
                if found is not _SENTINEL:
                    self._demote(key[0], key[2], found.payload, key[1])
            dropped += len(stale)
            if not stale:
                break
        if dropped:
            self.metrics.incr("cache.invalidated", dropped)
            tracing.event(
                "cache.invalidated", store_version=version, dropped=dropped
            )
        return dropped

    def clear(self) -> None:
        """Drop everything, stale entries included (counters are preserved)."""
        self._store.clear()
        self._stale.clear()

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hits(self) -> int:
        """Lookups served from the cache so far."""
        return self._store.hits

    @property
    def misses(self) -> int:
        """Lookups that fell through so far."""
        return self._store.misses

    @property
    def evictions(self) -> int:
        """LRU evictions so far."""
        return self._store.evictions

    @property
    def hit_rate(self) -> float:
        """Hits / (hits + misses) so far (0.0 before any traffic)."""
        return self._store.hit_rate
