"""Tenant chains are logical-only: no physical layer is ever written."""

from repro.kg import SyntheticKGConfig, generate_kg
from repro.kg.adjacency import build_csr
from repro.kg.fsck import check_bundle
from repro.serving.requests import NeighborhoodRequest, PersonalRecord
from repro.serving.tenancy import TenantRegistry


def _record(n: int, target: str) -> PersonalRecord:
    return PersonalRecord(
        record_id=f"r{n:03d}",
        source="contacts",
        fields=(("first_name", f"Person{n}"), ("linked_entity", target)),
        sequence=1,
    )


def test_tenant_bundle_holds_no_layers_and_reattaches_identically(tmp_path):
    kg = generate_kg(SyntheticKGConfig(seed=23, scale=0.05))
    entities = sorted(kg.store.entity_ids())
    registry = TenantRegistry(tmp_path / "tenants", compact_every=3)
    for n in range(4):
        registry.upsert("solo", [_record(n, entities[n])])
    registry.delete("solo", "contacts", "r001")
    state = registry.get("solo")
    state.publisher.compact()
    registry.upsert("solo", [_record(9, entities[9])])
    records, tombstones = dict(state.records), dict(state.tombstones)
    assert ("contacts", "r001") in tombstones
    registry.close()

    tenant_dir = tmp_path / "tenants" / "solo"
    assert (tenant_dir / "bases").is_dir()  # the compaction happened
    physical = {"adjacency", "context", "alias", "embeddings"}
    assert not [path for path in tenant_dir.rglob("*") if path.name in physical]
    assert check_bundle(tenant_dir) == []

    reattached = TenantRegistry(tmp_path / "tenants")
    state = reattached.get("solo")
    assert state.records == records
    assert state.tombstones == tombstones
    person = state.fused()[1][0].entity
    with reattached.lease("solo") as leased:
        engine = leased.engine(build_csr(kg.store))
        assert reattached.execute_on(engine, NeighborhoodRequest(entities=(person,)))
    reattached.close()
