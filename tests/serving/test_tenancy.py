"""Multi-tenant serving: registry lifecycle, isolation, swaps, caching.

The pins the ISSUE demands: ≥8 tenants answering byte-identically to a
single-tenant run, canary facts that never leak across tenants (including
across a concurrent shared-generation swap), LRU eviction with crash-safe
cold re-attach, and per-(tenant, tenant_version) cache keys.
"""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro.common import ids
from repro.kg import SyntheticKGConfig, generate_kg
from repro.kg.adjacency import build_csr
from repro.kg.deltas import GenerationPublisher
from repro.kg.overlay import TenantOverlay
from repro.kg.store import EntityRecord
from repro.kg.triple import entity_fact
from repro.serving.requests import (
    ERROR_BAD_REQUEST,
    ERROR_UNAVAILABLE,
    STATUS_DEGRADED,
    NeighborhoodRequest,
    PersonalRecord,
    RelatedRequest,
    TenantDeleteRequest,
    TenantSyncRequest,
    TenantUpsertRequest,
    WalkRequest,
)
from repro.serving.resilience import TransientServingError
from repro.serving.service import ServingService
from repro.serving.tenancy import TenantNotFound, TenantRegistry, TenantState

PERSON = ids.entity_id("personal/person-0000")


def canary_record(tenant_no: int, target: str, *, sequence: int = 1) -> PersonalRecord:
    """One contact record whose name and shared-graph link are unique to
    ``tenant_no`` — the leak detector every isolation sweep greps for."""
    return PersonalRecord(
        record_id=f"c{tenant_no:03d}",
        source="contacts",
        fields=(
            ("first_name", f"Canary{tenant_no:02d}"),
            ("last_name", "Holder"),
            ("linked_entity", target),
            ("phone", f"+1-555-01{tenant_no:02d}"),
        ),
        sequence=sequence,
    )


@pytest.fixture(scope="module")
def shared_world():
    kg = generate_kg(SyntheticKGConfig(seed=23, scale=0.05))
    return kg, build_csr(kg.store), sorted(kg.store.entity_ids())


def make_registry(tmp_path, name="tenants", **kwargs):
    return TenantRegistry(tmp_path / name, **kwargs)


def tenant_read(registry, base, tenant_id, request) -> list:
    """A tenant read the way the service serves one: lease, then execute
    over the overlay engine viewed through the shared ``base``."""
    with registry.lease(tenant_id) as state:
        return registry.execute_on(state.engine(base), request)


def populate(registry, entities, tenant_nos) -> dict[str, str]:
    """Create one canary tenant per number; returns tenant -> target."""
    targets = {}
    for n in tenant_nos:
        tenant = f"tenant-{n:02d}"
        target = entities[n % len(entities)]
        registry.upsert(tenant, [canary_record(n, target)])
        targets[tenant] = target
    return targets


class TestRegistryIsolation:
    def test_eight_tenants_never_see_each_other(self, tmp_path, shared_world):
        _kg, base, entities = shared_world
        registry = make_registry(tmp_path)
        targets = populate(registry, entities, range(8))
        assert len(set(targets.values())) == 8
        for tenant, target in targets.items():
            hood = tenant_read(
                registry, base, tenant, NeighborhoodRequest(entities=(PERSON,), hops=1)
            )[0]
            assert target in hood
            leaked = set(hood) & (set(targets.values()) - {target})
            assert not leaked, f"{tenant} leaked {leaked}"

    def test_byte_identical_to_single_tenant_run(self, tmp_path, shared_world):
        """A tenant sharing the registry with 7 others answers exactly as
        it would alone — the multiplexing is invisible to results."""
        _kg, base, entities = shared_world
        fleet = make_registry(tmp_path, name="fleet")
        populate(fleet, entities, range(8))
        solo = make_registry(tmp_path, name="solo")
        populate(solo, entities, [3])

        walk = WalkRequest(
            entities=(PERSON,), walk_length=6, walks_per_entity=4, seed=41
        )
        hood = NeighborhoodRequest(entities=(PERSON,), hops=2)
        assert tenant_read(fleet, base, "tenant-03", walk) == tenant_read(
            solo, base, "tenant-03", walk
        )
        assert tenant_read(fleet, base, "tenant-03", hood) == tenant_read(
            solo, base, "tenant-03", hood
        )

    def test_unknown_tenant_raises(self, tmp_path, shared_world):
        _kg, base, _entities = shared_world
        registry = make_registry(tmp_path)
        with pytest.raises(TenantNotFound):
            tenant_read(
                registry, base, "nobody", NeighborhoodRequest(entities=(PERSON,), hops=1)
            )

    def test_sync_round_trip_and_dp_count(self, tmp_path, shared_world):
        _kg, _base, entities = shared_world
        registry = make_registry(tmp_path)
        payload = registry.sync(
            "sync-tenant", records=[canary_record(1, entities[0])], epsilon=2.0
        )
        assert payload["tenant_version"] >= 1
        assert payload["people"] and payload["people"][0]["name"].startswith(
            "Canary01"
        )
        # The device already holds its own record; nothing comes back.
        assert payload["records"] == []
        # DP, not exact: the noised count is a float, and two versions of
        # the store draw different noise (seeded by tenant+version).
        assert isinstance(payload["dp_record_count"], float)

        # A second, empty-handed device learns the record via sync.
        fresh = registry.sync("sync-tenant")
        assert [r["record_id"] for r in fresh["records"]] == ["c001"]

    def test_delete_tombstone_suppresses_and_lww_resurrects(
        self, tmp_path, shared_world
    ):
        _kg, base, entities = shared_world
        registry = make_registry(tmp_path)
        registry.upsert("t", [canary_record(5, entities[5])])
        assert registry.delete("t", "contacts", "c005")["deleted"]
        # Replaying the same-sequence record after the delete is a no-op
        # (delete wins ties) ...
        result = registry.upsert("t", [canary_record(5, entities[5])])
        assert result["applied"] == 0 and result["skipped"] == 1
        # ... but a strictly newer write resurrects.
        result = registry.upsert("t", [canary_record(5, entities[5], sequence=9)])
        assert result["applied"] == 1
        hood = tenant_read(
            registry, base, "t", NeighborhoodRequest(entities=(PERSON,), hops=1)
        )[0]
        assert entities[5] in hood


class TestRegistryLifecycle:
    def test_lru_eviction_and_cold_reattach(self, tmp_path, shared_world):
        _kg, base, entities = shared_world
        registry = make_registry(tmp_path, max_resident=2)
        targets = populate(registry, entities, range(4))
        assert registry.resident_count() == 2
        assert registry.evictions == 2
        assert all(registry.exists(tenant) for tenant in targets)
        # The evicted tenant cold-attaches from its bundle with state
        # intact — version, records, and answers all survive residency.
        state = registry.get("tenant-00")
        assert state.records[("contacts", "c000")].fields["first_name"] == "Canary00"
        hood = tenant_read(
            registry, base, "tenant-00", NeighborhoodRequest(entities=(PERSON,), hops=1)
        )[0]
        assert targets["tenant-00"] in hood

    def test_crash_safe_reload_preserves_everything(self, tmp_path, shared_world):
        _kg, base, entities = shared_world
        first = make_registry(tmp_path)
        first.upsert("durable", [canary_record(2, entities[2])])
        first.upsert("durable", [canary_record(7, entities[7])])
        first.delete("durable", "contacts", "c007")
        version = first.get("durable").version
        answer = tenant_read(
            first, base, "durable", NeighborhoodRequest(entities=(PERSON,), hops=1)
        )
        first.close()  # simulated crash: only the durable bundles remain

        second = make_registry(tmp_path)
        state = second.get("durable")
        assert state.version == version
        assert set(state.records) == {("contacts", "c002")}
        assert state.tombstones[("contacts", "c007")] == 1
        assert (
            tenant_read(
                second, base, "durable", NeighborhoodRequest(entities=(PERSON,), hops=1)
            )
            == answer
        )

    def test_lease_pins_against_eviction(self, tmp_path, shared_world):
        """A leased tenant survives LRU overflow (and explicit evict)
        until released — eviction mid-request could otherwise re-attach
        the same tenant and run two publishers over one chain."""
        _kg, _base, entities = shared_world
        registry = make_registry(tmp_path, max_resident=1)
        registry.upsert("pinned", [canary_record(0, entities[0])])
        with registry.lease("pinned") as leased:
            assert not registry.evict("pinned")
            # Attaching others overflows the LRU, but the pinned slot
            # defers its eviction to the release below.
            registry.upsert("other", [canary_record(1, entities[1])])
            with registry.lease("pinned") as again:
                assert again is leased  # still the same resident state
        # Released: the overflow already trimmed back to max_resident
        # (the unpinned "other" went instead), and the explicit evict
        # that was refused above now succeeds.
        assert registry.resident_count() == 1
        assert registry.evict("pinned")
        assert registry.resident_count() == 0
        assert registry.exists("pinned")  # durable on disk either way

    def test_concurrent_writes_under_tiny_lru_lose_nothing(
        self, tmp_path, shared_world
    ):
        """Writers hammer two tenants through a max_resident=1 registry —
        constant eviction pressure — and every durable record survives a
        cold reload (no publisher ever ran concurrently with its twin)."""
        _kg, _base, entities = shared_world
        registry = make_registry(tmp_path, max_resident=1)
        per_tenant = 6
        errors: list = []

        def writer(tenant: str, offset: int) -> None:
            try:
                for i in range(per_tenant):
                    n = offset + i
                    registry.upsert(
                        tenant, [canary_record(n, entities[n % len(entities)])]
                    )
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append((tenant, exc))

        threads = [
            threading.Thread(target=writer, args=(tenant, offset))
            for tenant in ("alpha", "beta")
            for offset in (0, per_tenant)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors, errors[:3]
        registry.close()

        reloaded = make_registry(tmp_path, max_resident=2)
        for tenant in ("alpha", "beta"):
            state = reloaded.get(tenant)
            assert set(state.records) == {
                ("contacts", f"c{n:03d}") for n in range(2 * per_tenant)
            }, tenant

    def test_write_waits_for_an_in_flight_compaction(
        self, tmp_path, shared_world, monkeypatch
    ):
        """A write racing the tenant's background compaction waits for it,
        so the compacted base matches the chain and a cold attach of the
        tenant sees every record (instead of a StoreError)."""
        from repro.kg import deltas

        _kg, _base, entities = shared_world
        # Every second publish compacts: the second upsert schedules one,
        # and the racing write's own delta stays on the compacted base.
        registry = make_registry(tmp_path, compact_every=2)
        registry.upsert("racer", [canary_record(0, entities[0])])
        save = deltas.save_snapshot
        started, release = threading.Event(), threading.Event()

        def held_save(*args, **kwargs):
            # The compaction has read the store version; hold it mid-save.
            started.set()
            release.wait(timeout=30.0)
            return save(*args, **kwargs)

        monkeypatch.setattr(deltas, "save_snapshot", held_save)
        registry.upsert("racer", [canary_record(1, entities[1])])
        assert started.wait(timeout=30.0)
        errors: list = []

        def write() -> None:
            try:
                registry.upsert("racer", [canary_record(2, entities[2])])
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        writer = threading.Thread(target=write)
        writer.start()
        # Time for the write to land mid-save, were it not held off.
        writer.join(timeout=0.3)
        release.set()
        writer.join(timeout=30.0)
        assert not writer.is_alive() and not errors, errors
        registry.get("racer").publisher.join_compaction()
        registry.close()

        reloaded = make_registry(tmp_path)
        assert set(reloaded.get("racer").records) == {
            ("contacts", f"c{n:03d}") for n in range(3)
        }

    def test_invalid_tenant_ids_are_rejected(self, tmp_path, shared_world):
        from repro.serving.tenancy import TenantError

        registry = make_registry(tmp_path)
        for bad in ("../escape", "", ".hidden", "a/b", "x" * 65):
            with pytest.raises(TenantError):
                registry.get(bad, create=True)
            assert not registry.exists(bad)

    def test_rebind_base_picks_up_grown_shared_graph(self, tmp_path):
        kg = generate_kg(SyntheticKGConfig(seed=29, scale=0.05))
        entities = sorted(kg.store.entity_ids())
        registry = make_registry(tmp_path)
        registry.upsert("grower", [canary_record(0, entities[0])])
        read = NeighborhoodRequest(entities=(PERSON,), hops=2)
        tenant_read(registry, build_csr(kg.store), "grower", read)

        newcomer = ids.entity_id("grown/swap-witness")
        kg.store.upsert_entity(EntityRecord(entity=newcomer, name="Witness"))
        kg.store.add(
            entity_fact(
                newcomer, ids.predicate_id("knows"), entities[0], sources=("g",)
            )
        )
        hood2 = tenant_read(registry, build_csr(kg.store), "grower", read)[0]
        # Two hops from the person: canary link, then the *new* shared
        # edge published after the tenant was created.
        assert newcomer in hood2


@pytest.fixture()
def tenant_service(bundle_dir, tmp_path):
    service = ServingService(
        bundle_dir, mode="inline", tenants_dir=tmp_path / "tenants"
    )
    yield service
    service.close()


class TestServiceDispatch:
    def test_end_to_end_upsert_then_read(self, tenant_service, seed_entities):
        upsert = tenant_service.serve(
            TenantUpsertRequest(records=(canary_record(1, seed_entities[1]),)),
            tenant="alice",
        )
        assert upsert.ok and upsert.payload["applied"] == 1
        read = tenant_service.serve(
            NeighborhoodRequest(entities=(PERSON,), hops=1), tenant="alice"
        )
        assert read.ok and seed_entities[1] in read.payload[0]
        # The shared graph never sees tenant facts: the same request
        # without a tenant answers over a dictionary with no person node.
        shared = tenant_service.serve(NeighborhoodRequest(entities=(PERSON,), hops=1))
        assert shared.ok and shared.payload[0] == []

    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_every_fleet_mode_serves_tenants(
        self, bundle_dir, tmp_path, seed_entities, mode
    ):
        """Tenant dispatch happens before pool fan-out, so every worker
        fleet shape serves identical tenant answers."""
        with ServingService(
            bundle_dir, mode=mode, tenants_dir=tmp_path / f"tenants-{mode}"
        ) as service:
            service.serve(
                TenantUpsertRequest(records=(canary_record(4, seed_entities[4]),)),
                tenant="modal",
            )
            walk = service.serve(
                WalkRequest(
                    entities=(PERSON,), walk_length=5, walks_per_entity=3, seed=11
                ),
                tenant="modal",
            )
            assert walk.ok
            flat = {node for walk_ in walk.payload[0] for node in walk_}
            assert PERSON in flat

    def test_tenant_cache_keys_hit_and_invalidate(
        self, tenant_service, seed_entities
    ):
        request = NeighborhoodRequest(entities=(PERSON,), hops=1)
        tenant_service.serve(
            TenantUpsertRequest(records=(canary_record(2, seed_entities[2]),)),
            tenant="bob",
        )
        first = tenant_service.serve(request, tenant="bob")
        second = tenant_service.serve(request, tenant="bob")
        assert not first.cached and second.cached
        assert second.payload == first.payload
        # A tenant write bumps tenant_version: structural invalidation.
        # (Same record_id at a higher sequence — LWW moves the canary's
        # shared-graph link, so the fresh answer must differ.)
        tenant_service.serve(
            TenantUpsertRequest(
                records=(
                    PersonalRecord(
                        record_id="c002",
                        source="contacts",
                        fields=(
                            ("first_name", "Canary02"),
                            ("last_name", "Holder"),
                            ("linked_entity", seed_entities[3]),
                        ),
                        sequence=2,
                    ),
                )
            ),
            tenant="bob",
        )
        third = tenant_service.serve(request, tenant="bob")
        assert not third.cached
        assert seed_entities[3] in third.payload[0]
        assert seed_entities[2] not in third.payload[0]

    def test_cache_never_crosses_tenants(self, tenant_service, seed_entities):
        request = NeighborhoodRequest(entities=(PERSON,), hops=1)
        for name, n in (("carol", 5), ("dave", 6)):
            tenant_service.serve(
                TenantUpsertRequest(records=(canary_record(n, seed_entities[n]),)),
                tenant=name,
            )
            tenant_service.serve(request, tenant=name)  # warm each key
        carol = tenant_service.serve(request, tenant="carol")
        dave = tenant_service.serve(request, tenant="dave")
        assert carol.cached and dave.cached
        assert seed_entities[5] in carol.payload[0]
        assert seed_entities[5] not in dave.payload[0]
        assert seed_entities[6] in dave.payload[0]

    def test_cache_family_stats_expose_tenant_traffic(
        self, tenant_service, seed_entities
    ):
        request = NeighborhoodRequest(entities=(PERSON,), hops=1)
        tenant_service.serve(
            TenantUpsertRequest(records=(canary_record(1, seed_entities[1]),)),
            tenant="erin",
        )
        tenant_service.serve(request, tenant="erin")
        tenant_service.serve(request, tenant="erin")
        body = tenant_service.prometheus_metrics()
        assert 'kg_cache_misses_by_type_total{type="neighborhood"}' in body
        assert 'kg_cache_hits_by_type_total{type="neighborhood"}' in body
        assert 'kg_tenant_ops_by_kind_total{kind="upserts"}' in body

    def test_error_codes(self, tenant_service, bundle_dir):
        # Tenant family without an envelope tenant: bad_request.
        response = tenant_service.serve(TenantDeleteRequest(source="s", record_id="r"))
        assert response.status == "error"
        assert response.error.code == ERROR_BAD_REQUEST
        # Unknown tenant on a read: bad_request, not internal.
        response = tenant_service.serve(
            NeighborhoodRequest(entities=(PERSON,), hops=1), tenant="ghost"
        )
        assert response.error.code == ERROR_BAD_REQUEST
        # Non-overlay request types refuse tenant scoping.
        response = tenant_service.serve(
            RelatedRequest(entities=(PERSON,), k=3), tenant="ghost"
        )
        assert response.error.code == ERROR_BAD_REQUEST
        # Tenancy disabled entirely: unavailable.
        with ServingService(bundle_dir, mode="inline") as bare:
            response = bare.serve(TenantSyncRequest(), tenant="anyone")
            assert response.error.code == ERROR_UNAVAILABLE


class TestConcurrentSwapSweep:
    def test_canaries_survive_a_live_shared_swap(self, tmp_path):
        """Readers hammer 8 tenants while the shared bundle swaps
        generations underneath: zero failed requests, zero leaks."""
        kg = generate_kg(SyntheticKGConfig(seed=31, scale=0.05))
        entities = sorted(kg.store.entity_ids())
        bundle = tmp_path / "bundle"
        publisher = GenerationPublisher(kg.store, bundle)
        service = ServingService(
            bundle, mode="inline", tenants_dir=tmp_path / "tenants"
        )
        try:
            targets = {}
            for n in range(8):
                tenant = f"swap-{n}"
                target = entities[n]
                targets[tenant] = target
                service.serve(
                    TenantUpsertRequest(records=(canary_record(n, target),)),
                    tenant=tenant,
                )
            failures: list = []
            leaks: list = []
            stop = threading.Event()

            def reader(offset: int) -> None:
                round_no = 0
                while not stop.is_set():
                    for tenant, target in targets.items():
                        response = service.serve(
                            NeighborhoodRequest(entities=(PERSON,), hops=1),
                            tenant=tenant,
                        )
                        if not response.ok:
                            failures.append((tenant, response.error))
                            continue
                        hood = set(response.payload[0])
                        if target not in hood:
                            leaks.append((tenant, "missing-canary"))
                        foreign = hood & (set(targets.values()) - {target})
                        if foreign:
                            leaks.append((tenant, foreign))
                    round_no += 1

            threads = [
                threading.Thread(target=reader, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            # Two generation swaps under live tenant traffic.
            for round_no in range(2):
                grown = ids.entity_id(f"grown/mid-swap-{round_no}")
                kg.store.upsert_entity(EntityRecord(entity=grown, name="Grown"))
                fact = entity_fact(
                    grown, ids.predicate_id("knows"), entities[round_no], sources=("g",)
                )
                kg.store.add(fact)
                publisher.record(keys=[fact.key], entities=[grown])
                publisher.publish()
                publisher.join_compaction()
                service.adopt_generation(bundle)
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not failures, failures[:3]
            assert not leaks, leaks[:3]
            assert service.store_version == kg.store.version
        finally:
            service.close()


class TestSwapReleasesTheOldBase:
    def test_idle_tenants_do_not_pin_the_previous_generation(self, tmp_path):
        """After a shared swap no resident tenant's cached overlay keeps
        the old generation's CSR alive, though none of them reads again;
        their next reads answer as a fresh overlay over the new base."""
        kg = generate_kg(SyntheticKGConfig(seed=43, scale=0.05))
        entities = sorted(kg.store.entity_ids())
        bundle = tmp_path / "bundle"
        publisher = GenerationPublisher(kg.store, bundle)
        with ServingService(
            bundle, mode="inline", tenants_dir=tmp_path / "tenants"
        ) as service:
            tenants = [f"idle-{n}" for n in range(3)]
            read = NeighborhoodRequest(entities=(PERSON,), hops=2)
            for n, tenant in enumerate(tenants):
                service.serve(
                    TenantUpsertRequest(records=(canary_record(n, entities[n]),)),
                    tenant=tenant,
                )
                assert service.serve(read, tenant=tenant).ok
            assert service._tenants.resident_count() == 3
            old_base = weakref.ref(service._pool.local_state.engine.snapshot())

            grown = ids.entity_id("grown/idle-witness")
            kg.store.upsert_entity(EntityRecord(entity=grown, name="Witness"))
            fact = entity_fact(grown, ids.predicate_id("knows"), entities[0], sources=("g",))
            kg.store.add(fact)
            publisher.record(keys=[fact.key], entities=[grown])
            publisher.publish()
            publisher.join_compaction()
            service.adopt_generation(bundle)
            gc.collect()
            assert old_base() is None

            base = service._pool.local_state.engine.snapshot()
            for tenant in tenants:
                response = service.serve(read, tenant=tenant)
                store, _people = service._tenants.get(tenant).fused()
                fresh = TenantOverlay(base, store).engine()
                assert response.ok
                assert response.payload == service._tenants.execute_on(fresh, read)
            assert grown in service.serve(read, tenant="idle-0").payload[0]


class TestTenantPipeline:
    """Tenant reads run the shared reads' pipeline: stale-on-error and
    swap retries, each strictly inside the tenant's own scope."""

    def _fail_reads(self, service, monkeypatch):
        def down(engine, request):
            raise TransientServingError("overlay down")

        monkeypatch.setattr(service._tenants, "execute_on", down)

    def test_failed_read_serves_own_stale_answer_only(
        self, tenant_service, seed_entities, monkeypatch
    ):
        request = NeighborhoodRequest(entities=(PERSON,), hops=1)
        for name, n in (("amy", 1), ("ben", 2)):
            tenant_service.serve(
                TenantUpsertRequest(records=(canary_record(n, seed_entities[n]),)),
                tenant=name,
            )
        fresh = tenant_service.serve(request, tenant="amy")
        assert fresh.ok and seed_entities[1] in fresh.payload[0]
        version = tenant_service.store_version
        # A shared generation swap demotes amy's entry to the stale store.
        tenant_service._cache.adopt_version(version + 1)
        self._fail_reads(tenant_service, monkeypatch)

        stale = tenant_service.serve(request, tenant="amy")
        assert stale.status == STATUS_DEGRADED and stale.cached
        assert stale.payload == fresh.payload
        assert stale.resilience["stale"] is True
        assert stale.resilience["stale_version"] == float(version)
        # Same request, other tenant: never amy's stale answer.
        other = tenant_service.serve(request, tenant="ben")
        assert other.status == "error" and other.payload is None

    def test_stale_answer_never_predates_the_tenants_last_write(
        self, tenant_service, seed_entities, monkeypatch
    ):
        request = NeighborhoodRequest(entities=(PERSON,), hops=1)
        tenant_service.serve(
            TenantUpsertRequest(records=(canary_record(3, seed_entities[3]),)),
            tenant="cal",
        )
        assert tenant_service.serve(request, tenant="cal").ok
        tenant_service._cache.adopt_version(tenant_service.store_version + 1)
        # The deleted record must not come back through the fallback.
        deleted = tenant_service.serve(
            TenantDeleteRequest(source="contacts", record_id="c003"), tenant="cal"
        )
        assert deleted.ok and deleted.payload["deleted"]
        self._fail_reads(tenant_service, monkeypatch)
        response = tenant_service.serve(request, tenant="cal")
        assert response.status == "error" and response.payload is None

    def test_read_losing_a_swap_retries_in_its_tenant_scope(
        self, tmp_path, monkeypatch
    ):
        kg = generate_kg(SyntheticKGConfig(seed=37, scale=0.05))
        entities = sorted(kg.store.entity_ids())
        bundle = tmp_path / "bundle"
        publisher = GenerationPublisher(kg.store, bundle)
        with ServingService(
            bundle, mode="inline", tenants_dir=tmp_path / "tenants"
        ) as service:
            service.serve(
                TenantUpsertRequest(records=(canary_record(1, entities[1]),)),
                tenant="dee",
            )
            grown = ids.entity_id("grown/retry-witness")
            kg.store.upsert_entity(EntityRecord(entity=grown, name="Witness"))
            fact = entity_fact(
                grown, ids.predicate_id("knows"), entities[0], sources=("g",)
            )
            kg.store.add(fact)
            publisher.record(keys=[fact.key], entities=[grown])
            publisher.publish()
            publisher.join_compaction()
            registry = service._tenants
            execute_on = registry.execute_on
            calls = []

            def loses_the_race(engine, request):
                calls.append(request)
                if len(calls) == 1:
                    service.adopt_generation(bundle)
                    raise RuntimeError("worker pool is closed")
                return execute_on(engine, request)

            monkeypatch.setattr(registry, "execute_on", loses_the_race)
            response = service.serve(
                NeighborhoodRequest(entities=(PERSON,), hops=1), tenant="dee"
            )
            assert response.ok and len(calls) == 2
            assert entities[1] in response.payload[0]  # the overlay answered
            assert response.store_version == kg.store.version
            assert service.stats()["counter.serve.swap_retries"] >= 1.0

    def test_store_version_names_the_overlays_base(
        self, tmp_path, monkeypatch
    ):
        kg = generate_kg(SyntheticKGConfig(seed=41, scale=0.05))
        entities = sorted(kg.store.entity_ids())
        bundle = tmp_path / "bundle"
        publisher = GenerationPublisher(kg.store, bundle)
        with ServingService(
            bundle, mode="inline", tenants_dir=tmp_path / "tenants"
        ) as service:
            service.serve(
                TenantUpsertRequest(records=(canary_record(2, entities[2]),)),
                tenant="eve",
            )
            first_version = service.store_version
            fact = entity_fact(
                entities[3], ids.predicate_id("knows"), entities[4], sources=("g",)
            )
            kg.store.add(fact)
            publisher.record(keys=[fact.key])
            publisher.publish()
            publisher.join_compaction()
            registry = service._tenants
            acquire = registry._acquire
            bases = []
            engine = TenantState.engine

            def swap_then_acquire(tenant_id, **kwargs):
                # The swap lands after the request captured its generation
                # but before its overlay resolves a base.
                if not bases:
                    service.adopt_generation(bundle)
                return acquire(tenant_id, **kwargs)

            def recording_engine(state, base):
                bases.append(base.built_version)
                return engine(state, base)

            monkeypatch.setattr(registry, "_acquire", swap_then_acquire)
            monkeypatch.setattr(TenantState, "engine", recording_engine)
            response = service.serve(
                NeighborhoodRequest(entities=(PERSON,), hops=1), tenant="eve"
            )
            assert response.ok and entities[2] in response.payload[0]
            assert service.store_version != first_version
            assert bases == [response.store_version] == [first_version]
