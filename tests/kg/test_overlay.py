"""Tenant overlays: splice parity, determinism, append-only id pinning."""

import numpy as np
import pytest

from repro.common import ids
from repro.common.errors import StoreError
from repro.kg import SyntheticKGConfig, generate_kg
from repro.kg.adjacency import build_csr
from repro.kg.deltas import GenerationPublisher
from repro.kg.overlay import TenantOverlay, collapse_overlay, overlay_payload
from repro.kg.persistence import load_snapshot
from repro.kg.store import EntityRecord, TripleStore
from repro.kg.triple import LiteralType, entity_fact, literal_fact

INTERESTED = ids.predicate_id("interested_in")
KNOWS = ids.predicate_id("knows")
NOTE = ids.predicate_id("note")


@pytest.fixture(scope="module")
def shared():
    """A small shared open-domain KG plus its base CSR (read-only)."""
    kg = generate_kg(SyntheticKGConfig(seed=13, scale=0.05))
    return kg.store, build_csr(kg.store)


def _personal_store(shared_store, *, people=2, links=2) -> TripleStore:
    """A personal store linking synthetic persons into the shared graph."""
    store = TripleStore(name="personal")
    shared_entities = sorted(shared_store.entity_ids())
    for p in range(people):
        person = ids.entity_id(f"person/anna-{p}")
        store.upsert_entity(EntityRecord(entity=person, name=f"Anna {p}"))
        for l in range(links):
            target = shared_entities[(p * 7 + l * 3) % len(shared_entities)]
            store.add(entity_fact(person, INTERESTED, target, sources=("dev",)))
        if p:
            store.add(
                entity_fact(
                    person, KNOWS, ids.entity_id("person/anna-0"), sources=("dev",)
                )
            )
        store.add(
            literal_fact(person, NOTE, f"note {p}", LiteralType.STRING)
        )
    return store


def _neighbor_sets(csr) -> dict[str, set[str]]:
    strings = csr.dictionary
    return {
        strings.string_of(node): {
            strings.string_of(int(i)) for i in csr.neighbors_of(node)
        }
        for node in range(csr.num_nodes)
    }


class TestOverlayParity:
    def test_matches_from_scratch_union_build(self, shared):
        """The collapsed overlay equals a full build of shared+personal."""
        shared_store, base = shared
        personal = _personal_store(shared_store)

        union = TripleStore(name="union")
        union.copy_entities_from(shared_store)
        union.copy_entities_from(personal)
        for fact in shared_store.scan():
            union.add(fact)
        for fact in personal.scan():
            union.add(fact)
        full = build_csr(union)

        merged = collapse_overlay(base, personal)
        assert merged.num_edges == full.num_edges
        full_rows = _neighbor_sets(full)
        merged_rows = _neighbor_sets(merged)
        assert set(full_rows) == set(merged_rows)
        for node, row in full_rows.items():
            assert merged_rows[node] == row, node
            assert merged.degree(node) == full.degree(node), node
        assert merged.predicate_counts == full.predicate_counts

    def test_two_builds_are_byte_identical(self, shared):
        shared_store, base = shared
        personal = _personal_store(shared_store)
        first = collapse_overlay(base, personal)
        second = collapse_overlay(base, personal)
        np.testing.assert_array_equal(first.indptr, second.indptr)
        np.testing.assert_array_equal(first.indices, second.indices)
        np.testing.assert_array_equal(
            first.entity_edge_degrees, second.entity_edge_degrees
        )
        assert list(first.dictionary.strings()) == list(second.dictionary.strings())

    def test_base_is_shared_not_copied(self, shared):
        """Collapsing must never mutate the (multiplexed) base CSR."""
        shared_store, base = shared
        before_nodes = base.num_nodes
        before_indices = base.indices.copy()
        personal = _personal_store(shared_store)
        merged = collapse_overlay(base, personal)
        assert base.num_nodes == before_nodes
        np.testing.assert_array_equal(base.indices, before_indices)
        assert merged is not base

    def test_personal_nodes_take_ids_past_base(self, shared):
        shared_store, base = shared
        personal = _personal_store(shared_store)
        payload = overlay_payload(base, personal)
        assert payload.store_version == personal.version
        assert payload.parent_version == base.built_version
        # Every string the base lacks appends past base.num_nodes, in
        # sorted order — the deterministic id assignment the splice and
        # the append-only pin both rely on.
        assert payload.new_strings == sorted(payload.new_strings)
        merged = collapse_overlay(base, personal)
        for offset, string in enumerate(payload.new_strings):
            assert merged.dictionary.get(string) == base.num_nodes + offset
        for p in range(2):
            person = ids.entity_id(f"person/anna-{p}")
            assert merged.dictionary.get(person) >= base.num_nodes
            assert base.dictionary.get(person) is None


class TestTenantOverlay:
    def test_engine_serves_merged_view(self, shared):
        shared_store, base = shared
        personal = _personal_store(shared_store)
        overlay = TenantOverlay(base, personal)
        assert overlay.base_version == base.built_version
        assert overlay.num_personal_nodes > 0
        engine = overlay.engine()
        person = ids.entity_id("person/anna-0")
        hood = engine.neighborhood(person, hops=1)
        linked = set(personal.objects(person, INTERESTED))
        assert linked and linked <= set(hood)
        # One hop further reaches pure shared-graph structure: neighbors
        # of the linked shared entity that no personal fact mentions.
        two = set(engine.neighborhood(person, hops=2))
        shared_only = set()
        for target in linked:
            node = base.dictionary.get(target)
            shared_only |= {
                base.dictionary.string_of(int(i)) for i in base.neighbors_of(node)
            }
        assert shared_only & two

    def test_engine_is_cached(self, shared):
        shared_store, base = shared
        overlay = TenantOverlay(base, _personal_store(shared_store))
        assert overlay.engine() is overlay.engine()

    def test_mutated_personal_store_is_refused(self, shared):
        shared_store, base = shared
        personal = _personal_store(shared_store)
        overlay = TenantOverlay(base, personal)
        personal.add(
            literal_fact(
                ids.entity_id("person/anna-0"), NOTE, "late", LiteralType.STRING
            )
        )
        with pytest.raises(StoreError, match="moved"):
            overlay.engine()


class TestAppendOnlyAcrossGenerations:
    def test_shared_swap_keeps_ids_and_overlay_valid(self, tmp_path):
        """The ISSUE pin: a shared-bundle generation swap only ever
        *appends* to the dictionary, so rebuilding a tenant overlay
        against the new base lands personal facts on the same strings
        and keeps every pre-swap id meaningful."""
        kg = generate_kg(SyntheticKGConfig(seed=17, scale=0.05))
        publisher = GenerationPublisher(
            kg.store, tmp_path / "bundle"
        )
        base_v1 = load_snapshot(tmp_path / "bundle").adjacency
        personal = _personal_store(kg.store)
        overlay_v1 = TenantOverlay(base_v1, personal)
        person = ids.entity_id("person/anna-0")
        hood_v1 = overlay_v1.engine().neighborhood(person, hops=1)

        # Grow the shared graph: a brand-new entity plus new edges.
        anchor = sorted(kg.store.entity_ids())[0]
        newcomer = ids.entity_id("grown/newcomer")
        kg.store.upsert_entity(EntityRecord(entity=newcomer, name="Newcomer"))
        fact = entity_fact(newcomer, KNOWS, anchor, sources=("growth",))
        kg.store.add(fact)
        publisher.record(keys=[fact.key], entities=[newcomer])
        assert publisher.publish() is not None
        base_v2 = load_snapshot(tmp_path / "bundle").adjacency
        assert base_v2.built_version > base_v1.built_version

        # Append-only: every v1 string keeps its exact id in v2.
        v1_strings = list(base_v1.dictionary.strings())
        for node_id, string in enumerate(v1_strings):
            assert base_v2.dictionary.get(string) == node_id
        assert base_v2.num_nodes > base_v1.num_nodes

        overlay_v2 = TenantOverlay(base_v2, personal)
        engine_v2 = overlay_v2.engine()
        # Personal facts land on the same strings: the old merged view
        # is a subset of the new one (the swap only added shared edges).
        hood_v2 = engine_v2.neighborhood(person, hops=1)
        assert set(hood_v1) <= set(hood_v2)
        # And the newly-grown shared structure is reachable through the
        # same overlay without any tenant-side work.
        assert engine_v2.snapshot().dictionary.get(newcomer) is not None
        anchor_hood = engine_v2.neighborhood(anchor, hops=1)
        assert newcomer in anchor_hood

    def test_personal_ids_shift_but_strings_resolve(self, tmp_path):
        """Personal node *ids* may shift across a swap (they re-append
        past the larger base); resolution is by string, so reads agree."""
        kg = generate_kg(SyntheticKGConfig(seed=19, scale=0.05))
        publisher = GenerationPublisher(
            kg.store, tmp_path / "bundle"
        )
        base_v1 = load_snapshot(tmp_path / "bundle").adjacency
        personal = _personal_store(kg.store, people=1, links=1)
        person = ids.entity_id("person/anna-0")
        id_v1 = collapse_overlay(base_v1, personal).dictionary.get(person)

        newcomer = ids.entity_id("grown/other")
        kg.store.upsert_entity(EntityRecord(entity=newcomer, name="Other"))
        fact = entity_fact(
            newcomer, KNOWS, sorted(kg.store.entity_ids())[1], sources=("growth",)
        )
        kg.store.add(fact)
        publisher.record(keys=[fact.key], entities=[newcomer])
        publisher.publish()
        base_v2 = load_snapshot(tmp_path / "bundle").adjacency

        merged_v2 = collapse_overlay(base_v2, personal)
        id_v2 = merged_v2.dictionary.get(person)
        assert id_v2 >= base_v2.num_nodes > id_v1
        linked = personal.objects(person, INTERESTED)[0]
        row = {
            merged_v2.dictionary.string_of(int(i))
            for i in merged_v2.neighbors_of(id_v2)
        }
        assert linked in row
