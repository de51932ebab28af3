"""F-tenant — multi-tenant overlay serving costs.

The tenancy subsystem multiplexes thousands of tiny personal KGs over one
shared CSR (§5's assistant scenario at serving shape).  Three costs make
that viable, each pinned by a row here:

* **tenant_read_overhead** — a resident tenant's uncached query vs the
  same query tenantless; the overlay splice must stay within
  ``overhead_budget`` (1.3x, gated absolutely by check_regressions.py);
* **cold_attach** — time-to-first-answer for a tenant that is on disk but
  not resident (load bundle → fuse records → collapse overlay), plus the
  resident per-tenant memory footprint;
* **tenant_publish** — one durable tenant write via the per-tenant
  delta-chain publisher: the ~ms path every upsert/sync/delete rides.
"""

import time

import pytest

from benchmarks.conftest import SCALE, check_floor, record_result
from repro.kg.adjacency import build_csr
from repro.kg.generator import SyntheticKGConfig, generate_kg
from repro.kg.persistence import save_snapshot
from repro.serving.requests import NeighborhoodRequest, PersonalRecord
from repro.serving.service import ServingService
from repro.serving.tenancy import TenantRegistry

TENANTS = 16
RECORDS_PER_TENANT = 6
READ_QUERIES = 300
PUBLISH_ROUNDS = 8


@pytest.fixture(scope="module")
def tenant_world():
    kg = generate_kg(SyntheticKGConfig(seed=7, scale=SCALE))
    return kg, sorted(kg.store.entity_ids())


def _records(tenant_no: int, entities: list[str]) -> list[PersonalRecord]:
    return [
        PersonalRecord(
            record_id=f"c{tenant_no:03d}-{i}",
            source="contacts",
            fields=(
                ("first_name", f"Person{tenant_no:02d}x{i}"),
                ("last_name", "Bench"),
                ("linked_entity", entities[(tenant_no * 13 + i * 7) % len(entities)]),
                ("phone", f"+1-555-{tenant_no:02d}{i:02d}"),
            ),
            sequence=1,
        )
        for i in range(RECORDS_PER_TENANT)
    ]


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_tenant_read_overhead(benchmark, tenant_world, tmp_path_factory):
    kg, entities = tenant_world
    bundle = tmp_path_factory.mktemp("tenant-bundle")
    save_snapshot(kg.store, bundle, layers=("adjacency", "context", "alias"))
    with ServingService(
        bundle,
        mode="inline",
        tenants_dir=tmp_path_factory.mktemp("tenants"),
    ) as service:
        tenant = "bench-tenant"
        service._tenants.upsert(tenant, _records(0, entities))
        # Distinct single-entity probes: every serve() is a fresh compute
        # (no cache hits on either side), over entities both the shared
        # graph and the overlay dictionary contain.
        probes = [
            NeighborhoodRequest(
                entities=(entities[(i * 37) % len(entities)],), hops=1,
            )
            for i in range(READ_QUERIES)
        ]
        # Warm the overlay once so the row measures steady-state resident
        # reads, not the first collapse (cold_attach pins that).
        assert service.serve(probes[0], tenant=tenant).ok
        assert service.serve(probes[0]).ok

        # The cache clears *inside* every timed pass: each repeat is a
        # fresh compute end to end, so the row really measures the
        # overlay splice and not QueryCache probes.
        def run_tenantless():
            service._cache.clear()
            for probe in probes:
                assert service.serve(probe).ok

        def run_tenant():
            service._cache.clear()
            for probe in probes:
                assert service.serve(probe, tenant=tenant).ok

        tenantless_best = _best_of(run_tenantless)
        tenant_best = _best_of(run_tenant)

        # Steady-state cache hits (the common production read): warm both
        # keyspaces once, then every timed probe must answer cached.
        service._cache.clear()
        for probe in probes:
            assert service.serve(probe).ok
            assert service.serve(probe, tenant=tenant).ok

        def hits(fn_probe):
            for probe in probes:
                response = fn_probe(probe)
                assert response.ok and response.cached

        cached_tenantless = _best_of(lambda: hits(service.serve))
        cached_tenant = _best_of(
            lambda: hits(lambda p: service.serve(p, tenant=tenant))
        )
        benchmark(lambda: service.serve(probes[0], tenant=tenant))

        state = service._tenants.get(tenant)
        per_tenant_kb = state.memory_bytes() / 1024.0
        overhead = tenant_best / tenantless_best
        row = {
            "op": "tenant_read_overhead",
            "mean_query_us": round(tenant_best / READ_QUERIES * 1e6, 3),
            "tenantless_query_us": round(
                tenantless_best / READ_QUERIES * 1e6, 3
            ),
            "overhead_vs_tenantless": round(overhead, 3),
            "cached_query_us": round(cached_tenant / READ_QUERIES * 1e6, 3),
            "cached_overhead": round(cached_tenant / cached_tenantless, 3),
            "per_tenant_kb": round(per_tenant_kb, 1),
            "queries": READ_QUERIES,
        }
        if SCALE >= 1.0:
            # The absolute gate (check_regressions.py budget_violations):
            # resident-tenant reads within 1.3x of tenantless.  Smoke
            # scales say nothing about the 1.0-scale promise.
            row["overhead_budget"] = 1.3
        record_result("F-tenant", row)
        check_floor(
            overhead <= 1.3,
            f"tenant read overhead {overhead:.2f}x exceeds the 1.3x budget",
        )


def test_cold_attach_and_memory(benchmark, tenant_world, tmp_path_factory):
    kg, entities = tenant_world
    tenants_dir = tmp_path_factory.mktemp("tenants-cold")
    base = build_csr(kg.store)
    registry = TenantRegistry(tenants_dir, base=base, max_resident=TENANTS)
    probe = NeighborhoodRequest(
        entities=("entity:personal/person-0000",), hops=1
    )
    for n in range(TENANTS):
        registry.upsert(f"cold-{n:02d}", _records(n, entities))
        assert registry.execute_read(f"cold-{n:02d}", probe)
    registry.close()

    # Every tenant is durable on disk and nothing is resident: attach one
    # at a time and measure time-to-first-answer (bundle load + record
    # parse + fuse + overlay collapse).
    fresh = TenantRegistry(tenants_dir, base=base, max_resident=TENANTS)
    attach_times = []
    for n in range(TENANTS):
        start = time.perf_counter()
        assert fresh.execute_read(f"cold-{n:02d}", probe)
        attach_times.append(time.perf_counter() - start)
    cold_ms = min(attach_times) * 1000
    memory_kb = [
        fresh.get(f"cold-{n:02d}").memory_bytes() / 1024.0 for n in range(TENANTS)
    ]

    def attach_once():
        fresh.evict("cold-00")
        return fresh.execute_read("cold-00", probe)

    benchmark(attach_once)
    record_result(
        "F-tenant",
        {
            "op": "cold_attach",
            "cold_start_ms": round(cold_ms, 3),
            "mean_cold_start_ms": round(
                sum(attach_times) / len(attach_times) * 1000, 3
            ),
            "per_tenant_kb": round(sum(memory_kb) / len(memory_kb), 1),
            "tenants": TENANTS,
            "records_per_tenant": RECORDS_PER_TENANT,
        },
    )
    fresh.close()


def test_tenant_publish_rides_the_delta_path(benchmark, tenant_world, tmp_path_factory):
    kg, entities = tenant_world
    registry = TenantRegistry(
        tmp_path_factory.mktemp("tenants-pub"),
        base=build_csr(kg.store),
        compact_every=PUBLISH_ROUNDS + 2,  # pure delta publishes
    )
    tenant = "writer"
    registry.upsert(tenant, _records(0, entities))
    publish_times = []
    for round_no in range(PUBLISH_ROUNDS):
        record = PersonalRecord(
            record_id=f"extra-{round_no}",
            source="contacts",
            fields=(
                ("first_name", f"Extra{round_no}"),
                ("last_name", "Bench"),
            ),
            sequence=1,
        )
        start = time.perf_counter()
        registry.upsert(tenant, [record])
        publish_times.append(time.perf_counter() - start)
    publish_ms = min(publish_times) * 1000
    benchmark(
        lambda: registry.upsert(
            tenant,
            [
                PersonalRecord(
                    record_id="bench-extra",
                    source="contacts",
                    fields=(("first_name", "Bench"), ("last_name", "Extra")),
                    sequence=1,
                )
            ],
        )
    )
    record_result(
        "F-tenant",
        {
            "op": "tenant_publish",
            "new_ms": round(publish_ms, 3),
            "rounds": PUBLISH_ROUNDS,
            "records_per_write": 1,
        },
    )
    # The whole point of per-tenant delta chains: a tenant write is a
    # small append, never a world re-serialization.
    check_floor(
        publish_ms < 100.0,
        f"tenant publish took {publish_ms:.1f}ms — not a ~ms delta append",
    )
    registry.close()
